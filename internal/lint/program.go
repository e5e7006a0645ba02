package lint

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the per-package half of Run (build call graph → publish
// summary → run analyzers → apply ignore directives) and its
// deterministic parallel scheduler over the import DAG.

// runOnePackage analyzes one package with the program's dependency
// facts in scope, publishes the package's own summary into the
// program, and returns its directive-filtered findings. What an
// analyzer that does not apply to tests reports in a _test.go file is
// dropped before suppression, so test code needs no directive for it.
func runOnePackage(pkg *Package, prog *Program, analyzers []*Analyzer) []Diagnostic {
	graph := buildCallGraph(pkg.Files, pkg.Info)
	prog.add(buildPackageSummary(pkg, prog, graph))
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			report: func(d Diagnostic) {
				if a.Tests || !strings.HasSuffix(d.File, "_test.go") {
					diags = append(diags, d)
				}
			},
			cg:   graph,
			prog: prog,
		}
		a.Run(pass)
	}
	ignores, malformed := collectIgnores(pkg)
	diags = suppress(diags, ignores)
	// Malformed directives are findings in their own right — a missing
	// reason breaks the suite's audit trail — and cannot be suppressed.
	return append(diags, malformed...)
}

// runDAG calls fn(i) for every node of a dependency graph, each node
// strictly after all of its dependencies (deps[i] lists the indices i
// depends on): a Kahn pass peels the graph into topological levels,
// and each level's nodes fan out across GOMAXPROCS workers with a
// barrier between levels. Run's graph has one way left to a cycle — two
// packages whose in-package tests import each other, which `go test`
// allows — and a cycle costs only itself: when no node is ready, one
// that lies on a cycle runs without the facts of the dependencies
// still ahead of it, and the peeling resumes.
func runDAG(deps [][]int, fn func(int)) {
	n := len(deps)
	dependents := make([][]int, n)
	indegree := make([]int, n)
	var level []int
	for i, ds := range deps {
		indegree[i] = len(ds)
		for _, d := range ds {
			dependents[d] = append(dependents[d], i)
		}
		if len(ds) == 0 {
			level = append(level, i)
		}
	}
	done := make([]bool, n)
	for left := n; left > 0; {
		if len(level) == 0 {
			// Every node left waits on another: walk the waits until
			// one repeats.
			i := slices.Index(done, false)
			for seen := make([]bool, n); !seen[i]; {
				seen[i] = true
				i = deps[i][slices.IndexFunc(deps[i], func(d int) bool { return !done[d] })]
			}
			level = []int{i}
		}
		runLevel(level, fn)
		for _, i := range level {
			done[i] = true
		}
		var next []int
		for _, i := range level {
			for _, j := range dependents[i] {
				if indegree[j]--; indegree[j] == 0 && !done[j] {
					next = append(next, j)
				}
			}
		}
		level, left = next, left-len(level)
	}
}

// runLevel runs fn over one level of mutually independent nodes in
// parallel.
func runLevel(level []int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(level) {
		workers = len(level)
	}
	if workers <= 1 {
		for _, i := range level {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(level) {
					return
				}
				fn(level[k])
			}
		}()
	}
	wg.Wait()
}
