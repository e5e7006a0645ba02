package lint

import (
	"go/ast"
	"go/types"
)

// This file is the shared interprocedural substrate under the dataflow
// analyzers: one call graph per package, built once per package by
// runOnePackage and handed to every Pass.

// funcNode is one function declaration in the package call graph.
type funcNode struct {
	decl *ast.FuncDecl
	obj  types.Object

	// callees lists the same-package functions and methods called
	// (directly, by name) anywhere in the body, deduplicated, in
	// source order. Indirect calls through function values are not
	// edges; the engines treat them as opaque.
	callees []types.Object
}

// callGraph is the per-package substrate shared by every analyzer in
// one run: declaration nodes and forward and reverse call edges.
type callGraph struct {
	nodes   []*funcNode // declaration order
	byObj   map[types.Object]*funcNode
	callers map[types.Object][]*funcNode // reverse edges, declaration order

	// Whole-program fact layers, built lazily and idempotently on top of
	// the graph (see summary.go) and shared between the summary builder
	// and the analyzers so neither recomputes the other's fixed points.
	frozenEng *taintEngine          // frozen-dataset taint (frozenwrite)
	walReach  map[types.Object]bool // transitively reaches a WAL append
}

// buildCallGraph walks the package once: function declarations become
// nodes, resolvable same-package calls become edges.
func buildCallGraph(files []*ast.File, info *types.Info) *callGraph {
	g := &callGraph{
		byObj:   make(map[types.Object]*funcNode),
		callers: make(map[types.Object][]*funcNode),
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := info.Defs[d.Name]
			if obj == nil {
				continue
			}
			n := &funcNode{decl: d, obj: obj}
			g.nodes = append(g.nodes, n)
			g.byObj[obj] = n
		}
	}
	for _, n := range g.nodes {
		if n.decl.Body == nil {
			continue
		}
		seen := make(map[types.Object]bool)
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				id = fn
			case *ast.SelectorExpr:
				id = fn.Sel
			default:
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				obj = info.Defs[id]
			}
			if obj == nil || seen[obj] {
				return true
			}
			if _, ok := obj.(*types.Func); !ok {
				return true
			}
			if _, declared := g.byObj[obj]; !declared {
				return true
			}
			seen[obj] = true
			n.callees = append(n.callees, obj)
			return true
		})
	}
	for _, n := range g.nodes {
		for _, callee := range n.callees {
			g.callers[callee] = append(g.callers[callee], n)
		}
	}
	return g
}
