package lint

import (
	"sort"
	"strings"
)

// LockOrder enforces one global mutex-acquisition order across the
// tree. Every package's summary (summary.go) carries its observed
// lock-order edges — "class B was acquired (directly or through a
// call, local or cross-package) while class A was held" — where a
// class is a mutex field of a named type (vmp/internal/live.Engine.ingestMu)
// or a package-level mutex variable. The whole-program Finish hook
// assembles the edges into one directed graph; a cycle means two code
// paths acquire the same locks in opposite orders, which is a
// potential deadlock the race detector only catches when the schedules
// actually collide.
//
// The analyzer has no per-package Run: a single package cannot decide
// a global order. Consequently its findings are not //lint:ignore
// suppressible — there is no single offending line; break the cycle
// instead (or narrow a critical section so the nested acquire moves
// out from under the held lock).
//
// Edges observed in _test.go bodies are excluded: tests deliberately
// hold production locks to wedge a component (the consumer stalled on
// the pending-list mutex) and then drive the system single-schedule, which
// inverts the production order on purpose without ever racing it. The
// order contract this analyzer enforces is the production one.
var LockOrder = &Analyzer{
	Name:   "lockorder",
	Doc:    "forbid cycles in the whole-program mutex acquisition order",
	Finish: finishLockOrder,
}

func finishLockOrder(prog *Program) []Diagnostic {
	// One representative edge per ordered class pair, from the scoped
	// packages, first source position in canonical edge order wins.
	type pair struct{ held, acquired string }
	first := make(map[pair]LockEdge)
	var pairs []pair
	adj := make(map[string][]string)
	for _, sum := range prog.Summaries() {
		if !strings.HasPrefix(sum.Path, "vmp/internal/") && !strings.HasPrefix(sum.Path, "vmp/cmd/") {
			continue
		}
		for _, e := range sum.Edges {
			if strings.HasSuffix(e.File, "_test.go") {
				continue
			}
			k := pair{e.Held, e.Acquired}
			if _, seen := first[k]; !seen {
				first[k] = e
				pairs = append(pairs, k)
				adj[e.Held] = append(adj[e.Held], e.Acquired)
			}
		}
	}
	var diags []Diagnostic
	for _, k := range pairs {
		if !lockReaches(adj, k.acquired, k.held) {
			continue
		}
		e := first[k]
		diags = append(diags, Diagnostic{
			Analyzer: "lockorder",
			File:     e.File,
			Line:     e.Line,
			Col:      e.Col,
			Message: "lock-order cycle: " + e.Acquired + " is acquired while " + e.Held +
				" is held here, but another path acquires " + e.Held + " while holding " + e.Acquired +
				" (transitively); pick one global acquisition order or narrow a critical section — opposite orders deadlock when schedules collide",
		})
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Message < diags[j].Message })
	return diags
}

// lockReaches reports whether the acquisition graph has a path
// from -> to.
func lockReaches(adj map[string][]string, from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range adj[cur] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}
