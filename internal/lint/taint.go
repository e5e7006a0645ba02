package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// taintEngine is the shared alias-taint machinery behind frozenwrite
// and atomicdiscipline: starting from analyzer-specific sources
// (Dataset accessors, atomic.Pointer loads), it propagates taint
// through local assignments and range statements to a fixpoint, then
// reports writes through tainted memory.
//
// The engine is interprocedural to a fixed point over the package call
// graph (see dataflow.go): every function declaration is summarized by
// asking whether any return expression reaches tainted memory, and —
// because summaries feed back into the taint of call expressions — a
// helper chain like
//
//	func (e *Engine) Generation() *Generation { return e.gen.Load() }
//	func (e *Engine) gen() *Generation        { return e.Generation() }
//
// carries its taint to every caller at any depth without whole-program
// analysis. The summary lattice is two-valued and only grows, so the
// worklist terminates, and the result is order-independent (a monotone
// fixed point), which keeps finding output deterministic.
type taintEngine struct {
	p *Pass

	// source reports whether a call originates tainted memory
	// (analyzer-specific: frozen accessors, atomic pointer loads).
	source func(*ast.CallExpr) bool

	// cross reports whether a cross-package callee is summarized as
	// returning tainted memory (see summary.go); nil when the engine
	// runs without whole-program facts.
	cross func(types.Object) bool

	// propagateRecv additionally taints the result of any method call
	// whose receiver is tainted (v.Dataset.All() when v is tainted).
	propagateRecv bool

	// summaries marks package functions whose results are tainted.
	summaries map[types.Object]bool
}

// newTaintEngine builds an engine with a call-shaped source, an
// optional cross-package fact source, and computes the fixed-point
// interprocedural summaries for the package under analysis.
func (p *Pass) newTaintEngine(source func(*ast.CallExpr) bool, cross func(types.Object) bool, propagateRecv bool) *taintEngine {
	t := &taintEngine{p: p, source: source, cross: cross, propagateRecv: propagateRecv}
	t.computeSummaries()
	return t
}

// computeSummaries fills t.summaries by iterating to a fixed point
// over the package call graph: a function is summarized tainted when
// some return expression of its body reaches tainted memory given the
// summaries computed so far; each newly tainted summary re-enqueues
// the function's callers, so taint flows through helper chains of any
// depth. Functions whose results carry no reference type cannot alias
// anything and are skipped. Returns inside function literals belong to
// the literal, not the declaration, and are skipped.
func (t *taintEngine) computeSummaries() {
	t.summaries = make(map[types.Object]bool)
	g := t.p.cg
	queue := make([]*funcNode, 0, len(g.nodes))
	queued := make(map[types.Object]bool, len(g.nodes))
	for _, n := range g.nodes {
		if summaryCandidate(n) {
			queue = append(queue, n)
			queued[n.obj] = true
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		queued[n.obj] = false
		if t.summaries[n.obj] || !t.returnsTainted(n.decl) {
			continue
		}
		t.summaries[n.obj] = true
		for _, caller := range g.callers[n.obj] {
			if !queued[caller.obj] && !t.summaries[caller.obj] && summaryCandidate(caller) {
				queue = append(queue, caller)
				queued[caller.obj] = true
			}
		}
	}
}

// summaryCandidate reports whether a function can possibly carry a
// tainted summary: it has a body and at least one reference-typed
// result.
func summaryCandidate(n *funcNode) bool {
	fd := n.decl
	if fd.Body == nil || fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return false
	}
	sig, ok := n.obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if mutableRefType(results.At(i).Type()) {
			return true
		}
	}
	return false
}

// returnsTainted reports whether any return expression of fd's body
// reaches tainted memory under the current summaries.
func (t *taintEngine) returnsTainted(fd *ast.FuncDecl) bool {
	tainted := t.localTaint(fd.Body)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || found {
			return !found
		}
		for _, res := range ret.Results {
			if t.taintedExpr(res, tainted) {
				found = true
			}
		}
		return true
	})
	return found
}

// localTaint propagates taint through one body's assignments and range
// statements to a fixpoint (the taint lattice only grows, so this
// terminates quickly).
func (t *taintEngine) localTaint(body *ast.BlockStmt) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := t.p.objectOf(id)
					if obj == nil || tainted[obj] || !mutableRefType(obj.Type()) {
						continue
					}
					if t.taintedExpr(st.Rhs[i], tainted) {
						tainted[obj] = true
						changed = true
					}
				}
			case *ast.RangeStmt:
				if !t.taintedExpr(st.X, tainted) {
					return true
				}
				if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
					obj := t.p.objectOf(id)
					if obj != nil && !tainted[obj] && mutableRefType(obj.Type()) {
						tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return tainted
}

// checkBody reports every write through tainted memory in body via
// reportf. Rebinding a tainted variable itself (v = nil) is not a
// write-through and stays legal.
func (t *taintEngine) checkBody(body *ast.BlockStmt, reportf func(pos token.Pos)) {
	tainted := t.localTaint(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				if _, ok := lhs.(*ast.Ident); ok {
					continue
				}
				if t.taintedExpr(lhs, tainted) {
					reportf(lhs.Pos())
				}
			}
		case *ast.IncDecStmt:
			if _, ok := st.X.(*ast.Ident); ok {
				return true
			}
			if t.taintedExpr(st.X, tainted) {
				reportf(st.X.Pos())
			}
		}
		return true
	})
}

// taintedExpr reports whether e reaches tainted memory.
func (t *taintEngine) taintedExpr(e ast.Expr, tainted map[types.Object]bool) bool {
	switch v := e.(type) {
	case *ast.Ident:
		obj := t.p.objectOf(v)
		return obj != nil && tainted[obj]
	case *ast.CallExpr:
		return t.taintedCall(v, tainted)
	case *ast.IndexExpr:
		return t.taintedExpr(v.X, tainted)
	case *ast.SliceExpr:
		return t.taintedExpr(v.X, tainted)
	case *ast.SelectorExpr:
		return t.taintedExpr(v.X, tainted)
	case *ast.StarExpr:
		return t.taintedExpr(v.X, tainted)
	case *ast.ParenExpr:
		return t.taintedExpr(v.X, tainted)
	case *ast.UnaryExpr:
		return v.Op == token.AND && t.taintedExpr(v.X, tainted)
	}
	return false
}

// taintedCall reports whether a call originates or forwards taint: a
// direct source, a call to a function summarized as returning tainted
// memory, an append whose destination is tainted (append may return
// the same backing array), or (with propagateRecv) a method call on a
// tainted receiver. append(untainted, tainted...) copies the contents
// into the destination's backing array and stays clean.
func (t *taintEngine) taintedCall(call *ast.CallExpr, tainted map[types.Object]bool) bool {
	if t.source(call) {
		return true
	}
	if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) > 0 {
		if b, ok := t.p.objectOf(id).(*types.Builtin); ok && b.Name() == "append" {
			return t.taintedExpr(call.Args[0], tainted)
		}
	}
	if obj := t.p.calleeObject(call); obj != nil {
		if t.summaries[obj] {
			return true
		}
		if t.cross != nil && t.cross(obj) {
			return true
		}
	}
	if t.propagateRecv {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if s, ok := t.p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				return t.taintedExpr(sel.X, tainted)
			}
		}
	}
	return false
}

// calleeObject resolves the called function or method, or nil for
// indirect calls and conversions.
func (p *Pass) calleeObject(call *ast.CallExpr) types.Object {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return p.objectOf(fn)
	case *ast.SelectorExpr:
		return p.objectOf(fn.Sel)
	}
	return nil
}
