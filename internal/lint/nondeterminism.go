package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Nondeterminism enforces the reproduction's time-and-randomness
// contract: every figure renders byte-identically from a seed, so
// library code must take time from simclock (or an injected clock)
// and randomness from explicitly seeded generators. Wall-clock reads
// and the process-seeded global math/rand source are forbidden
// everywhere except package simclock itself (test files are never
// linted).
var Nondeterminism = &Analyzer{
	Name:  "nondeterminism",
	Doc:   "forbid wall-clock reads and global math/rand outside simclock",
	Run:   runNondeterminism,
	Tests: true,
}

// wallClockFuncs are the time package entry points that observe the
// wall clock (directly or by ticking on it).
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"Tick":  true,
}

// seededRandCtors are the math/rand (and v2) names that construct
// explicitly seeded generators; everything else on the package drives
// the shared process-seeded source.
var seededRandCtors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runNondeterminism(p *Pass) {
	if strings.HasSuffix(p.Path, "internal/simclock") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn := p.pkgNameOf(id)
			if pn == nil {
				return true
			}
			// References to types (time.Time, rand.Rand) are fine;
			// only functions and variables carry nondeterminism.
			if _, isType := p.objectOf(sel.Sel).(*types.TypeName); isType {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if wallClockFuncs[sel.Sel.Name] {
					p.Reportf(sel.Pos(),
						"time.%s reads the wall clock; take time from simclock or an injected clock so runs stay reproducible",
						sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if !seededRandCtors[sel.Sel.Name] {
					p.Reportf(sel.Pos(),
						"rand.%s draws from the process-seeded global source; use an explicitly seeded generator (e.g. dist.NewSource) so runs stay reproducible",
						sel.Sel.Name)
				}
			}
			return true
		})
	}
}
