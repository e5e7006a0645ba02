package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// This file lifts the per-package dataflow substrate (dataflow.go,
// taint.go) to whole-program analysis. After a package is analyzed,
// buildPackageSummary distills every exported function into FuncFacts —
// does its result alias frozen-dataset memory, does it return an
// atomic.Pointer-published value, does it reach a WAL append, which
// lock classes does it (transitively) acquire — and the facts are
// published into a Program. Dependent packages, analyzed later along
// the import DAG, consult those facts wherever their own fixed-point
// engines previously went blind at a cross-package call: a telemetry
// accessor wrapped by a helper in another package carries its taint to
// the caller exactly as an in-package helper chain does.
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
	// TaintAtomic: some result aliases a value loaded from an
	// atomic.Pointer or atomic.Value (consumed by atomicdiscipline).
	TaintAtomic bool
	// WALAppend: the function (transitively) reaches a WAL AppendBatch
	// (consumed by fsyncdiscipline's ack-ordering rule).
	WALAppend bool
	// Locks: the lock classes the function (transitively) acquires,
	// sorted (consumed by lockorder at cross-package call sites).
	Locks []string
}

// isZero reports whether the facts carry no information worth
// publishing.
func (f FuncFacts) isZero() bool {
	return !f.TaintFrozen && !f.TaintAtomic && !f.WALAppend && len(f.Locks) == 0
}

// LockEdge is one observed lock-order constraint: Acquired was taken
// (directly or through a call) while Held was held, at the recorded
// position. The lockorder analyzer assembles these into the global
// acquisition-order graph and reports cycles.
type LockEdge struct {
	Held     string
	Acquired string
	File     string
	Line     int
	Col      int
}

// PackageSummary is one package's published facts: per-function
// dataflow summaries plus its lock-order edges.
type PackageSummary struct {
	Path  string
	Funcs map[string]FuncFacts
	Edges []LockEdge
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

// Summaries returns every published summary, sorted by import path.
func (pr *Program) Summaries() []*PackageSummary {
	pr.mu.RLock()
	defer pr.mu.RUnlock()
	paths := make([]string, 0, len(pr.summaries))
	for path := range pr.summaries {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*PackageSummary, 0, len(paths))
	for _, path := range paths {
		out = append(out, pr.summaries[path])
	}
	return out
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
// shared call graph. The intermediate per-function results (lock sets,
// WAL reachability, taint engines) are stashed on the graph so the
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
	atomicT := p.atomicEngine().summaries
	p.ensureLockFacts()
	p.ensureWALFacts()
	sum := &PackageSummary{Path: pkg.Path, Funcs: make(map[string]FuncFacts)}
	for _, n := range g.nodes {
		fn, ok := n.obj.(*types.Func)
		if !ok || !exportableFunc(fn) {
			continue
		}
		facts := FuncFacts{
			TaintFrozen: frozen[n.obj],
			TaintAtomic: atomicT[n.obj],
			WALAppend:   g.walReach[n.obj],
			Locks:       g.lockSets[n.obj],
		}
		if !facts.isZero() {
			sum.Funcs[fn.FullName()] = facts
		}
	}
	sum.Edges = g.lockEdges
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
			p.depTaint(func(f FuncFacts) bool { return f.TaintFrozen }), false)
	}
	return g.frozenEng
}

// atomicEngine returns the package's atomic-publication taint engine
// (shared by atomicdiscipline and the summary builder), with
// cross-package calls consulting dependency TaintAtomic facts.
func (p *Pass) atomicEngine() *taintEngine {
	g := p.cg
	if g.atomicEng == nil {
		g.atomicEng = p.newTaintEngine(p.isAtomicPointerLoad,
			p.depTaint(func(f FuncFacts) bool { return f.TaintAtomic }), true)
	}
	return g.atomicEng
}

// ensureWALFacts computes, once per call graph, which functions
// (transitively) reach a WAL append: a direct call to an AppendBatch
// method declared under vmp/internal/ (concrete or interface), a call
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

// isWALAppend reports whether obj is an AppendBatch method declared
// under vmp/internal/ — the WAL's durability entry point, whether
// reached concretely ((*wal.Log).AppendBatch) or through an interface
// (live.WAL).
func isWALAppend(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "AppendBatch" || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return strings.HasPrefix(fn.Pkg().Path(), "vmp/internal/")
}

// Lock-order fact extraction. Lock classes are named
// "pkgpath.Type.field" for mutex fields of named struct types and
// "pkgpath.var" for package-level mutexes; same-class pairs are skipped
// (different instances of one type commonly nest, and lockdiscipline
// already polices same-receiver re-entrance), so every recorded edge is
// an inter-class ordering constraint.
const (
	loAcquire = iota
	loRelease
	loDeferRelease
	loCall
)

// lockOrderEvent is one lock-relevant action in a body, source order.
type lockOrderEvent struct {
	pos    token.Pos
	kind   int
	class  string
	callee types.Object
}

// ensureLockFacts computes, once per call graph, each function's
// transitive lock-acquisition set and the package's lock-order edges
// (acquisitions and lock-holding calls observed while another class was
// held).
func (p *Pass) ensureLockFacts() {
	g := p.cg
	if g.lockSets != nil {
		return
	}
	g.lockSets = make(map[types.Object][]string)
	events := make(map[types.Object][]lockOrderEvent)
	sets := make(map[types.Object]map[string]bool)
	for _, n := range g.nodes {
		set := make(map[string]bool)
		if n.decl.Body != nil {
			evs := p.lockOrderEvents(n.decl.Body)
			events[n.obj] = evs
			for _, ev := range evs {
				if ev.kind == loAcquire {
					set[ev.class] = true
				}
			}
		}
		sets[n.obj] = set
	}
	// Transitive closure over same-package call edges plus dependency
	// Locks facts, to a fixed point (monotone: sets only grow).
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			set := sets[n.obj]
			for _, ev := range events[n.obj] {
				if ev.kind != loCall {
					continue
				}
				for _, class := range p.calleeLockSet(ev.callee, sets) {
					if !set[class] {
						set[class] = true
						changed = true
					}
				}
			}
		}
	}
	// Edge emission: a linear held-set scan per body (deferred unlocks
	// hold to the end, mirroring lockdiscipline); acquisitions and
	// lock-holding calls under a held class record an ordering edge.
	var edges []LockEdge
	addEdge := func(held, acquired string, pos token.Pos) {
		if held == acquired {
			return
		}
		position := p.Fset.Position(pos)
		edges = append(edges, LockEdge{
			Held: held, Acquired: acquired,
			File: position.Filename, Line: position.Line, Col: position.Column,
		})
	}
	for _, n := range g.nodes {
		var held []string
		for _, ev := range events[n.obj] {
			switch ev.kind {
			case loAcquire:
				for _, h := range held {
					addEdge(h, ev.class, ev.pos)
				}
				held = append(held, ev.class)
			case loRelease:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == ev.class {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case loDeferRelease:
				// Held until return.
			case loCall:
				if len(held) == 0 {
					continue
				}
				for _, class := range p.calleeLockSet(ev.callee, sets) {
					for _, h := range held {
						addEdge(h, class, ev.pos)
					}
				}
			}
		}
	}
	g.lockEdges = sortLockEdges(edges)
	for _, n := range g.nodes {
		if classes := sortedStringSet(sets[n.obj]); len(classes) > 0 {
			g.lockSets[n.obj] = classes
		}
	}
}

// calleeLockSet returns the lock classes a callee (transitively)
// acquires: the local fixed-point set for same-package functions, the
// published Locks fact for cross-package ones.
func (p *Pass) calleeLockSet(callee types.Object, sets map[types.Object]map[string]bool) []string {
	if set, ok := sets[callee]; ok {
		return sortedStringSet(set)
	}
	if f, ok := p.depFacts(callee); ok {
		return f.Locks
	}
	return nil
}

// lockOrderEvents reduces a body to its source-ordered lock-order
// events. Function literals are skipped: when they run is unknown.
func (p *Pass) lockOrderEvents(body *ast.BlockStmt) []lockOrderEvent {
	var events []lockOrderEvent
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if class := p.lockClass(sel.X); class != "" {
					if !deferred[call] {
						events = append(events, lockOrderEvent{pos: call.Pos(), kind: loAcquire, class: class})
					}
					return true
				}
			case "Unlock", "RUnlock":
				if class := p.lockClass(sel.X); class != "" {
					kind := loRelease
					if deferred[call] {
						kind = loDeferRelease
					}
					events = append(events, lockOrderEvent{pos: call.Pos(), kind: kind, class: class})
					return true
				}
			}
		}
		if callee, ok := p.calleeObject(call).(*types.Func); ok && callee.Pkg() != nil {
			events = append(events, lockOrderEvent{pos: call.Pos(), kind: loCall, callee: callee})
		}
		return true
	})
	return events
}

// lockClass names the global lock class of a mutex expression:
// x.field (sync.Mutex/RWMutex field of a named struct) becomes
// "pkgpath.Type.field"; a package-level mutex variable (pkg.Mu or a
// bare identifier) becomes "pkgpath.var". Locals and unresolvable
// shapes return "".
func (p *Pass) lockClass(e ast.Expr) string {
	switch v := unparen(e).(type) {
	case *ast.SelectorExpr:
		obj := p.objectOf(v.Sel)
		vr, ok := obj.(*types.Var)
		if !ok || !isSyncMutex(vr.Type()) || vr.Pkg() == nil {
			return ""
		}
		if !vr.IsField() {
			// otherpkg.GlobalMu: a package-qualified mutex variable.
			if id, ok := unparen(v.X).(*ast.Ident); ok && p.pkgNameOf(id) != nil {
				return vr.Pkg().Path() + "." + vr.Name()
			}
			return ""
		}
		t := p.Info.TypeOf(v.X)
		if t == nil {
			return ""
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		tn := named.Obj()
		return tn.Pkg().Path() + "." + tn.Name() + "." + vr.Name()
	case *ast.Ident:
		vr, ok := p.objectOf(v).(*types.Var)
		if !ok || !isSyncMutex(vr.Type()) || vr.Pkg() == nil {
			return ""
		}
		if vr.Parent() != p.Pkg.Scope() {
			return "" // a local mutex is per-instance state
		}
		return vr.Pkg().Path() + "." + vr.Name()
	}
	return ""
}

// sortLockEdges canonicalizes an edge list: sorted by (held, acquired,
// file, line, col), exact duplicates dropped.
func sortLockEdges(edges []LockEdge) []LockEdge {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Held != b.Held {
			return a.Held < b.Held
		}
		if a.Acquired != b.Acquired {
			return a.Acquired < b.Acquired
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			out = append(out, e)
		}
	}
	return out
}

// sortedStringSet flattens a set to a sorted slice.
func sortedStringSet(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
