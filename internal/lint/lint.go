// Package lint is a self-contained static-analysis driver (in the
// spirit of golang.org/x/tools/go/analysis, but stdlib-only) that
// machine-checks invariants the study engine and the live serving
// plane depend on. Eight analyzers, one driver (Run), one pass, one
// output line per finding:
//
//   - nondeterminism: wall-clock and process-seeded randomness stay
//     out of library code; time flows through simclock, randomness
//     through seeded generators.
//   - maporder: accumulation loops never depend on Go's randomized
//     map iteration order.
//   - frozenwrite: telemetry.Dataset is immutable outside its own
//     package — the contract the race-free parallel figure pool
//     relies on. Interprocedural to a fixed point over the package
//     call graph: helper chains returning views taint their callers
//     at any depth.
//   - lockdiscipline: mutex-holding types neither re-enter their own
//     locks nor leak internal slices from under them.
//   - errcheck: internal/ and cmd/ code does not silently drop error
//     returns.
//   - ctxflow: caller contexts (r.Context(), ctx parameters) are
//     threaded into blocking work; bare time.Sleep is forbidden.
//   - httpdiscipline: every HTTP handler path writes its status at
//     most once, mutates headers only before the first body write,
//     and returns sync.Pool objects on every path after Get.
//   - fsyncdiscipline: a file written via a temp path is fsynced
//     before the rename and its directory fsynced after (the WAL
//     checkpoint protocol, DESIGN §11), and a handler never writes an
//     HTTP 202 before the WAL append that makes the ack durable.
//
// Allocation budgets, scratch-buffer aliasing, goroutine shutdown,
// channel protocol, writes to atomically published values and lock
// order are not linted: the testing.AllocsPerRun pins, the slot-reuse
// tests, the tests that stop each of the tree's loops and drain its
// worker pools, -race, and a hammer test of ingest, cuts and Close
// check them on the running code. The mutant ledger (cmd/vmpmutants,
// docs/mutants.md) shows each of those tests failing on a seeded
// mutant, and what the analyzers report on the same bytes.
//
// The suite is whole-program: packages are analyzed in import-DAG
// order, each one publishing per-function summaries (frozen-taint
// returns and WAL-append reachability — see summary.go) that
// dependents consult at cross-package call sites, so the fixed-point
// engines keep their in-package precision through exported helper
// chains. Every run loads _test.go files too; an analyzer declares
// whether it applies to them (Analyzer.Tests), and what the others
// report there is dropped.
//
// Findings can be suppressed, one line at a time, with a directive
// comment carrying an explicit reason:
//
//	//lint:ignore <analyzer|all> <reason>
//
// placed on the offending line or the line directly above it. The
// reason is load-bearing: a directive without one (or with a trailing
// comment posing as one) is itself reported, as analyzer "ignore",
// and suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string // short lowercase identifier, used in findings and ignore directives
	Doc  string // one-line contract statement
	Run  func(*Pass)

	// Tests says the contract holds in _test.go files too. Every run
	// loads them; what an analyzer without it reports there is dropped.
	Tests bool
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Path     string // import path of the package under analysis
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)

	// cg is the package call graph, built once per package and shared
	// by every analyzer (see dataflow.go).
	cg *callGraph

	// prog is the whole-program fact store: summaries of every
	// dependency analyzed before this package.
	prog *Program
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// objectOf resolves an identifier to its object, whether it is a use
// or a definition site.
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// pkgNameOf returns the imported package an identifier denotes, or nil.
func (p *Pass) pkgNameOf(id *ast.Ident) *types.PkgName {
	pn, _ := p.objectOf(id).(*types.PkgName)
	return pn
}

// Diagnostic is one finding, positioned for editors and CI.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Nondeterminism, MapOrder, FrozenWrite, LockDiscipline, ErrCheck,
		CtxFlow, HTTPDiscipline, FsyncDiscipline,
	}
}

// sortDedup orders diagnostics by (file, line, col, analyzer, message)
// and drops exact duplicates — Run's stable output contract.
func sortDedup(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i == 0 || d != diags[i-1] {
			out = append(out, d)
		}
	}
	return out
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzer string // analyzer name or "all"
}

// collectIgnores parses //lint:ignore directives, keyed by file and
// line. A well-formed directive needs an analyzer name (or "all") and
// a non-empty reason that is real prose, not a trailing comment.
// Malformed directives are inert — the diagnostic they meant to
// silence still fires — and are additionally returned as "ignore"
// findings so a reasonless suppression can never merge.
func collectIgnores(pkg *Package) (map[string]map[int][]ignoreDirective, []Diagnostic) {
	out := make(map[string]map[int][]ignoreDirective)
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // some other directive, e.g. //lint:ignoreme
				}
				pos := pkg.Fset.Position(c.Pos())
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				reason = strings.TrimSpace(reason)
				if name == "" || reason == "" || strings.HasPrefix(reason, "//") {
					malformed = append(malformed, Diagnostic{
						Analyzer: "ignore",
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  "//lint:ignore directive is missing its mandatory reason; write //lint:ignore <analyzer|all> <reason>",
					})
					continue
				}
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]ignoreDirective)
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], ignoreDirective{analyzer: name})
			}
		}
	}
	return out, malformed
}

// suppress drops diagnostics covered by a directive on the same line
// (trailing comment) or the line directly above (own-line comment).
func suppress(diags []Diagnostic, ignores map[string]map[int][]ignoreDirective) []Diagnostic {
	if len(ignores) == 0 {
		return diags
	}
	matches := func(d Diagnostic, line int) bool {
		for _, dir := range ignores[d.File][line] {
			if dir.analyzer == "all" || dir.analyzer == d.Analyzer {
				return true
			}
		}
		return false
	}
	out := diags[:0]
	for _, d := range diags {
		if matches(d, d.Line) || matches(d, d.Line-1) {
			continue
		}
		out = append(out, d)
	}
	return out
}
