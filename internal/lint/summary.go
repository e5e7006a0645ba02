package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"
)

// This file lifts the per-package dataflow substrate (dataflow.go,
// taint.go) to whole-program analysis. After a package is analyzed,
// buildPackageSummary distills every exported function into FuncFacts —
// does its result alias frozen-dataset memory, does it reach a WAL
// append — and the facts are published into a Program. Dependent
// packages, analyzed later along the import DAG, consult those facts
// wherever their own fixed-point engines previously went blind at a
// cross-package call: a telemetry accessor wrapped by a helper in
// another package carries its taint to the caller exactly as an
// in-package helper chain does.
//
// Facts are keyed by the function's fully qualified name
// ((*vmp/internal/wal.Log).AppendBatch, vmp/internal/telemetry.Scan) so
// they resolve across separately type-checked package instances, and
// only exported functions on exported receivers are published — nothing
// else is callable from a dependent.

// FuncFacts is the exported dataflow summary of one function.
type FuncFacts struct {
	// TaintFrozen: some result aliases telemetry.Dataset/DimColumn
	// internals (consumed by frozenwrite in dependents).
	TaintFrozen bool
	// WALAppend: the function (transitively) reaches a WAL AppendBatch
	// or AppendFrames (consumed by fsyncdiscipline's ack-ordering rule).
	WALAppend bool
}

// PackageSummary is one package's published facts: per-function
// dataflow summaries.
type PackageSummary struct {
	Path  string
	Funcs map[string]FuncFacts
}

// Program is the whole-program view: the summaries of every package
// processed so far in one run, keyed by import path. It is safe for
// concurrent use — the DAG scheduler publishes summaries from parallel
// workers while dependents read them.
type Program struct {
	mu        sync.RWMutex
	summaries map[string]*PackageSummary
}

// NewProgram returns an empty whole-program fact store.
func NewProgram() *Program {
	return &Program{summaries: make(map[string]*PackageSummary)}
}

func (pr *Program) add(s *PackageSummary) {
	pr.mu.Lock()
	pr.summaries[s.Path] = s
	pr.mu.Unlock()
}

// Summary returns the published summary for an import path, or nil.
func (pr *Program) Summary(path string) *PackageSummary {
	pr.mu.RLock()
	defer pr.mu.RUnlock()
	return pr.summaries[path]
}

// depFacts resolves the published facts for a cross-package callee, or
// ok=false when the object is local, not a function, or its package has
// no summary in the program.
func (p *Pass) depFacts(obj types.Object) (FuncFacts, bool) {
	if p.prog == nil || obj == nil {
		return FuncFacts{}, false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() == p.Pkg {
		return FuncFacts{}, false
	}
	s := p.prog.Summary(fn.Pkg().Path())
	if s == nil {
		return FuncFacts{}, false
	}
	f, ok := s.Funcs[fn.FullName()]
	return f, ok
}

// depTaint adapts a facts predicate into the taint engines'
// cross-package source shape.
func (p *Pass) depTaint(sel func(FuncFacts) bool) func(types.Object) bool {
	return func(obj types.Object) bool {
		f, ok := p.depFacts(obj)
		return ok && sel(f)
	}
}

// summaryPass is the synthetic analyzer identity under which package
// facts are computed; it never reports.
var summaryPass = &Analyzer{Name: "summary", Doc: "internal: whole-program fact extraction"}

// buildPackageSummary computes a package's exported facts on top of the
// shared call graph. The intermediate per-function results (WAL
// reachability, the taint engine) are stashed on the graph so the
// analyzers that run next reuse them instead of recomputing.
func buildPackageSummary(pkg *Package, prog *Program, g *callGraph) *PackageSummary {
	p := &Pass{
		Analyzer: summaryPass,
		Path:     pkg.Path,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		report:   func(Diagnostic) {},
		cg:       g,
		prog:     prog,
	}
	frozen := p.frozenEngine().summaries
	p.ensureWALFacts()
	sum := &PackageSummary{Path: pkg.Path, Funcs: make(map[string]FuncFacts)}
	for _, n := range g.nodes {
		fn, ok := n.obj.(*types.Func)
		if !ok || !exportableFunc(fn) {
			continue
		}
		if facts := (FuncFacts{TaintFrozen: frozen[n.obj], WALAppend: g.walReach[n.obj]}); facts != (FuncFacts{}) {
			sum.Funcs[fn.FullName()] = facts
		}
	}
	return sum
}

// exportableFunc reports whether a function is callable from a
// dependent package: exported, and (for methods) declared on an
// exported receiver type.
func exportableFunc(fn *types.Func) bool {
	if fn.Pkg() == nil || !fn.Exported() {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	recv := sig.Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Exported()
}

// frozenEngine returns the package's frozen-dataset taint engine,
// building it once per call graph; frozenwrite and the summary builder
// share it. Cross-package calls consult dependency TaintFrozen facts.
func (p *Pass) frozenEngine() *taintEngine {
	g := p.cg
	if g.frozenEng == nil {
		g.frozenEng = p.newTaintEngine(p.isFrozenAccessor,
			p.depTaint(func(f FuncFacts) bool { return f.TaintFrozen }))
	}
	return g.frozenEng
}

// ensureWALFacts computes, once per call graph, which functions
// (transitively) reach a WAL append: a direct call to an AppendBatch or
// AppendFrames method declared under vmp/internal/ (concrete or
// interface), a call
// to a cross-package function whose summary says WALAppend, or a call
// to a same-package function that does either.
func (p *Pass) ensureWALFacts() {
	g := p.cg
	if g.walReach != nil {
		return
	}
	g.walReach = make(map[types.Object]bool)
	var queue []*funcNode
	for _, n := range g.nodes {
		if n.decl.Body == nil {
			continue
		}
		direct := false
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			if direct {
				return false
			}
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := p.calleeObject(call)
			if isWALAppend(callee) {
				direct = true
			} else if f, ok := p.depFacts(callee); ok && f.WALAppend {
				direct = true
			}
			return !direct
		})
		if direct {
			g.walReach[n.obj] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, caller := range g.callers[n.obj] {
			if !g.walReach[caller.obj] {
				g.walReach[caller.obj] = true
				queue = append(queue, caller)
			}
		}
	}
}

// isWALAppend reports whether obj is an AppendBatch or AppendFrames
// method declared under vmp/internal/ — the WAL's two durability entry
// points, whether reached concretely ((*wal.Log).AppendFrames) or
// through an interface (live.WAL, live's frameAppender).
func isWALAppend(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || (fn.Name() != "AppendBatch" && fn.Name() != "AppendFrames") || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return strings.HasPrefix(fn.Pkg().Path(), "vmp/internal/")
}
