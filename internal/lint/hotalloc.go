package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc is the static complement to the AllocsPerRun pinning tests:
// a function annotated //vmp:hotpath (the wire decode loop, the ingest
// consumer, Span.Start, histogram observe) may not contain allocating
// constructs unless each one is individually approved with
// //vmp:alloc <reason> on its line or the line above. The alloc tests
// catch a regression after the fact on the paths they happen to
// exercise; this analyzer catches it in review, on every path.
//
// Flagged constructs: make, new, slice/map composite literals,
// &T{...} (heap-escaping pointer literals), closures that capture
// variables, string concatenation, string<->[]byte/[]rune conversions,
// and fmt calls. Deliberately not flagged:
//
//   - append: amortized arena/scratch growth is the approved pattern
//     the hot paths are built on.
//   - sync.Pool Get/Put: pooling is the approved alternative to
//     allocation (httpdiscipline checks the Put side).
//   - m[string(b)] map lookups: the compiler elides this conversion.
//   - fmt.Errorf and errors.New: cold error paths may construct
//     errors.
//   - non-capturing function literals: static closures are compiled
//     without an allocation.
//
// Calls into same-package helpers are traced through the call graph to
// a fixed point: a hotpath function calling a helper that (transitively)
// allocates is flagged at the call site, unless the helper is itself
// //vmp:hotpath (then its own body is checked directly, and the
// approvals live there). Cross-package calls consult the callee's
// published summary (summary.go): a call into a dependency whose
// Allocates fact is set — and which is not itself //vmp:hotpath,
// policed by its own package — is flagged at the call site too.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid unapproved allocating constructs in //vmp:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Pass) {
	if !strings.HasPrefix(p.Path, "vmp/internal/") && !strings.HasPrefix(p.Path, "vmp/cmd/") {
		return
	}
	g := p.graph()
	if len(g.hotpath) == 0 {
		return
	}
	// Direct sites, cross-package allocating calls, and the transitive
	// may-allocate fixed point are the shared fact layer computed once
	// per call graph (summary.go) — the summary builder publishes them,
	// this analyzer reports them.
	p.ensureAllocFacts()
	for _, n := range g.nodes {
		if !g.hotpath[n.obj] || n.decl.Body == nil {
			continue
		}
		for _, site := range g.allocDirect[n.obj] {
			p.Reportf(site.pos,
				"%s allocates on a //vmp:hotpath path; hoist it off the hot path or approve it with //vmp:alloc <reason>", site.what)
		}
		for _, site := range g.allocCross[n.obj] {
			p.Reportf(site.pos,
				"call to %s, which allocates per its package summary, on a //vmp:hotpath path; annotate %s //vmp:hotpath (approving its allocations) or hoist the call",
				site.name, site.name)
		}
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := p.calleeObject(call)
			if callee == nil || g.hotpath[callee] || !g.mayAlloc[callee] {
				return true
			}
			if _, declared := g.byObj[callee]; !declared {
				return true
			}
			pos := p.Fset.Position(call.Pos())
			if g.allocApproved(pos.Filename, pos.Line) {
				return true
			}
			p.Reportf(call.Pos(),
				"call to %s, which allocates, on a //vmp:hotpath path; annotate %s //vmp:hotpath (approving its allocations) or hoist the call",
				callee.Name(), callee.Name())
			return true
		})
	}
}

// allocSite is one unapproved allocating construct.
type allocSite struct {
	pos  token.Pos
	what string
}

// allocSites collects the allocating constructs in body that are not
// approved by a //vmp:alloc directive. Function literal bodies are
// included: code inside a closure on a hot path runs on the hot path.
func (p *Pass) allocSites(body *ast.BlockStmt, g *callGraph) []allocSite {
	var sites []allocSite
	add := func(pos token.Pos, what string) {
		position := p.Fset.Position(pos)
		if g.allocApproved(position.Filename, position.Line) {
			return
		}
		sites = append(sites, allocSite{pos: pos, what: what})
	}
	// m[string(b)] conversions are elided by the compiler; collect the
	// exempt conversion nodes up front.
	mapIndexConv := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		ix, ok := node.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if tv, ok := p.Info.Types[ix.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				if call, ok := unparen(ix.Index).(*ast.CallExpr); ok && p.isConversion(call) {
					mapIndexConv[call] = true
				}
			}
		}
		return true
	})
	skipLit := make(map[*ast.CompositeLit]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok {
				if b, ok := p.objectOf(id).(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						add(v.Pos(), "make")
					case "new":
						add(v.Pos(), "new")
					}
					return true
				}
			}
			if p.isConversion(v) && !mapIndexConv[v] && p.allocatingConversion(v) {
				add(v.Pos(), "string conversion")
				return true
			}
			if name, ok := p.pkgFunc(v, "fmt"); ok && name != "Errorf" {
				add(v.Pos(), "fmt."+name)
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if lit, ok := unparen(v.X).(*ast.CompositeLit); ok {
					skipLit[lit] = true
					add(v.Pos(), "heap-allocated composite literal")
				}
			}
		case *ast.CompositeLit:
			if skipLit[v] {
				return true
			}
			if tv, ok := p.Info.Types[v]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					add(v.Pos(), "slice literal")
				case *types.Map:
					add(v.Pos(), "map literal")
				}
			}
		case *ast.FuncLit:
			if p.capturesVariables(v) {
				add(v.Pos(), "capturing closure")
			}
		case *ast.BinaryExpr:
			if v.Op != token.ADD {
				return true
			}
			tv, ok := p.Info.Types[v]
			if !ok || tv.Value != nil { // constants fold at compile time
				return true
			}
			if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
				add(v.Pos(), "string concatenation")
			}
		}
		return true
	})
	return sites
}

// isConversion reports whether call is a type conversion.
func (p *Pass) isConversion(call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// allocatingConversion reports whether a conversion copies memory:
// string<->[]byte and string<->[]rune in either direction.
func (p *Pass) allocatingConversion(call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	dst, ok := p.Info.Types[call.Fun]
	if !ok {
		return false
	}
	src, ok := p.Info.Types[call.Args[0]]
	if !ok {
		return false
	}
	return (isStringType(dst.Type) && isByteOrRuneSlice(src.Type)) ||
		(isByteOrRuneSlice(dst.Type) && isStringType(src.Type))
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Kind() == types.Byte || basic.Kind() == types.Rune ||
		basic.Kind() == types.Uint8 || basic.Kind() == types.Int32
}

// capturesVariables reports whether a function literal references
// variables declared outside itself; non-capturing literals compile to
// static functions and do not allocate.
func (p *Pass) capturesVariables(lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		if captures {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level variable, not a capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
			return false
		}
		return true
	})
	return captures
}
