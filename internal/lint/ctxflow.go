package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context threading in internal/ and cmd/ code: a
// function that already has a caller's context — a context.Context
// parameter, or an *http.Request whose Context() carries the client's
// cancellation — must thread it into blocking work instead of minting
// a fresh root with context.Background() or context.TODO(). A handler
// that ignores r.Context() keeps computing for clients that hung up;
// an engine entry point that substitutes Background() detaches itself
// from the daemon's shutdown.
//
// Independently, time.Sleep is flagged everywhere in internal/ and
// cmd/: a bare wall sleep can be neither cancelled nor observed, which
// stalls drains and makes retry loops unkillable — use
// simclock.Wait(ctx, d), which returns early when the context is done.
//
// main functions are exempt from the context rules (something has to
// mint the root context), and package simclock is exempt entirely: it
// owns time.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "require caller contexts to be threaded into blocking calls; forbid bare time.Sleep",
	Run:  runCtxFlow,
}

func runCtxFlow(p *Pass) {
	if !strings.HasPrefix(p.Path, "vmp/internal/") && !strings.HasPrefix(p.Path, "vmp/cmd/") {
		return
	}
	if strings.HasSuffix(p.Path, "internal/simclock") {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkSleeps(fd.Body)
			if fd.Recv == nil && fd.Name.Name == "main" {
				continue // the root context has to come from somewhere
			}
			if src := p.contextSource(fd); src != "" {
				p.checkFreshRoots(fd.Body, src)
			}
		}
	}
}

// contextSource names the caller context available to fd: a
// context.Context parameter or an *http.Request parameter, or "" when
// the function has neither.
func (p *Pass) contextSource(fd *ast.FuncDecl) string {
	for _, field := range fd.Type.Params.List {
		t := p.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if isContextType(t) {
			name := "its context parameter"
			if len(field.Names) == 1 {
				name = field.Names[0].Name
			}
			return name
		}
		if isHTTPRequest(t) {
			name := "r"
			if len(field.Names) == 1 {
				name = field.Names[0].Name
			}
			return name + ".Context()"
		}
	}
	return ""
}

func isHTTPRequest(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// checkFreshRoots flags context.Background() / context.TODO() in a
// function that already has a caller context.
func (p *Pass) checkFreshRoots(body *ast.BlockStmt, src string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := p.pkgFunc(call, "context"); ok && (name == "Background" || name == "TODO") {
			p.Reportf(call.Pos(),
				"context.%s mints a fresh root in a function that already has a caller context; thread %s so cancellation reaches this call",
				name, src)
		}
		return true
	})
}

// checkSleeps flags time.Sleep calls.
func (p *Pass) checkSleeps(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := p.pkgFunc(call, "time"); ok && name == "Sleep" {
			p.Reportf(call.Pos(),
				"time.Sleep blocks with no way to cancel or observe it; use simclock.Wait(ctx, d) so shutdown and callers can interrupt the wait")
		}
		return true
	})
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
