package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineLifecycle ties every goroutine in internal/ and cmd/ code
// to a shutdown path, so daemons cannot leak consumers: a `go`
// statement whose function loops forever must be stoppable. A spawned
// function passes when its body (or the body of the same-package
// function it calls) shows one of:
//
//   - a receive from a context's Done() channel or from a signal
//     channel (chan struct{} — the quit/done idiom), in a select or
//     directly;
//   - a range over a channel, which terminates when the owner closes
//     it;
//   - a sync.WaitGroup.Done call, tying the goroutine into an owner's
//     Wait;
//   - for cross-package callees whose body is not visible: the
//     callee's published lifecycle summary (it does not loop, or loops
//     with one of the constructs above — see summary.go), or a
//     context.Context argument threaded into the call.
//
// Goroutine bodies with no loop at all run to completion on their own
// and are exempt — the analyzer polices daemons, not one-shot helpers.
var GoroutineLifecycle = &Analyzer{
	Name: "goroutinelifecycle",
	Doc:  "require every long-lived goroutine to have a shutdown path",
	Run:  runGoroutineLifecycle,
}

func runGoroutineLifecycle(p *Pass) {
	if !strings.HasPrefix(p.Path, "vmp/internal/") && !strings.HasPrefix(p.Path, "vmp/cmd/") {
		return
	}
	decls := p.packageFuncBodies()
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			p.checkGoStmt(gs, decls)
			return true
		})
	}
}

// packageFuncBodies maps every function and method declared in the
// package to its body, so `go e.consume()` can be checked against
// consume's own select loop.
func (p *Pass) packageFuncBodies() map[types.Object]*ast.BlockStmt {
	out := make(map[types.Object]*ast.BlockStmt)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := p.Info.Defs[fd.Name]; obj != nil {
				out[obj] = fd.Body
			}
		}
	}
	return out
}

func (p *Pass) checkGoStmt(gs *ast.GoStmt, decls map[types.Object]*ast.BlockStmt) {
	var body *ast.BlockStmt
	switch fn := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fn.Body
	default:
		if obj := p.calleeObject(gs.Call); obj != nil {
			body = decls[obj]
		}
	}
	if body == nil {
		// Cross-package callee: consult its published lifecycle facts
		// first (summary.go) — a callee that does not loop, or loops
		// with a recognized shutdown construct, is exonerated exactly
		// as a visible body would be. Facts only ever exonerate: with
		// no summary the check falls back to requiring a context
		// argument, the same rule as before.
		if f, ok := p.depFacts(p.calleeObject(gs.Call)); ok && (!f.Loops || f.Shutdown) {
			return
		}
		if p.callPassesContext(gs.Call) {
			return
		}
		p.Reportf(gs.Pos(),
			"goroutine calls a function with no visible body and no context argument; thread a context.Context (or spawn a same-package wrapper with a shutdown path) so the daemon can be stopped")
		return
	}
	if !hasLoop(body) {
		return // one-shot goroutine, runs to completion
	}
	if p.bodyHasShutdownPath(body) || p.callPassesContext(gs.Call) {
		return
	}
	p.Reportf(gs.Pos(),
		"long-lived goroutine has no shutdown path (no context/done-channel receive, channel range, or WaitGroup.Done); a daemon that cannot be stopped leaks on shutdown")
}

// hasLoop reports whether body contains any for or range statement
// (function literals included: a loop is a loop wherever it hides).
func hasLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// callPassesContext reports whether any argument of the call is a
// context.Context.
func (p *Pass) callPassesContext(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if t := p.Info.TypeOf(arg); t != nil && isContextType(t) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// bodyHasShutdownPath looks for the blessing constructs inside a
// goroutine body.
func (p *Pass) bodyHasShutdownPath(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.UnaryExpr:
			// <-ctx.Done(), <-quit: a receive from a cancellation source.
			if v.Op == token.ARROW && p.isCancellationChan(v.X) {
				found = true
			}
		case *ast.RangeStmt:
			// range over a channel ends when the owner closes it — except
			// a time.Ticker's C, which Stop never closes: ranging over it
			// loops forever.
			if t := p.Info.TypeOf(v.X); t != nil && !p.isTickerChan(v.X) {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if p.isWaitGroupDone(v) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isTickerChan reports whether e is the C field of a time.Ticker or
// time.Timer — channels the runtime never closes, so ranging over
// them is not a termination path.
func (p *Pass) isTickerChan(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "C" {
		return false
	}
	t := p.Info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" &&
		(obj.Name() == "Ticker" || obj.Name() == "Timer")
}

// isCancellationChan reports whether e is a channel expression that
// carries cancellation: a Done() call on a context.Context, or any
// chan struct{} (the quit/done signal idiom).
func (p *Pass) isCancellationChan(e ast.Expr) bool {
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if t := p.Info.TypeOf(sel.X); t != nil && isContextType(t) {
				return true
			}
		}
	}
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isWaitGroupDone reports whether call is Done on a sync.WaitGroup.
func (p *Pass) isWaitGroupDone(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	selection, ok := p.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	t := selection.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
