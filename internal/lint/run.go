package lint

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// target is one directory to lint and the import path its package is
// analyzed under. Run derives the path from the module root; fixture
// tests pose a testdata directory under a path of their choosing to
// reach the analyzers' path-scoped rules.
type target struct {
	dir, path string
}

// treeNode is one package scheduled for analysis, in the shape `go
// test` compiles: a requested directory is up to two nodes, the
// package with its in-package _test.go files merged in, and the
// external test package (path + "_test") when one exists.
type treeNode struct {
	target
	files []string // file names in dir
}

// Run is the one driver, behind vmplint and every test: header-scan
// the packages in dirs, load each with its _test.go files — the
// loader type-checks what they import on demand — run the analyzers
// over it, and return the findings, sorted and deduplicated. Packages
// are independent: each is analyzed on its own, in parallel and in no
// particular order.
func Run(root string, dirs []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunOverlay(root, nil, dirs, analyzers)
}

// RunOverlay is Run with each file named in overlay (absolute paths, as
// dirs must then be) read as the bytes given instead of the disk's —
// `go test -overlay` for the analyzers (cmd/vmpmutants).
func RunOverlay(root string, overlay map[string][]byte, dirs []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	loader.overlaid(overlay)
	targets := make([]target, 0, len(dirs))
	for _, dir := range dirs {
		path, err := loader.pathFor(dir)
		if err != nil {
			return nil, err
		}
		targets = append(targets, target{dir: dir, path: path})
	}
	return run(loader, targets, analyzers)
}

func run(loader *Loader, targets []target, analyzers []*Analyzer) ([]Diagnostic, error) {
	nodes, err := scanTree(loader, targets)
	if err != nil {
		return nil, err
	}
	findings := make([][]Diagnostic, len(nodes))
	errs := make([]error, len(nodes))
	var loaderMu sync.Mutex // the Loader is not safe for concurrent use
	parallel(len(nodes), func(i int) {
		n := nodes[i]
		loaderMu.Lock()
		pkg, err := loader.Load(n.dir, n.path, n.files)
		loaderMu.Unlock()
		if err != nil {
			errs[i] = err
			return
		}
		findings[i] = runOnePackage(pkg, analyzers)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sortDedup(slices.Concat(findings...)), nil
}

// scanTree header-scans the requested targets into the nodes Run
// loads, in target order.
func scanTree(l *Loader, targets []target) ([]*treeNode, error) {
	var nodes []*treeNode
	seen := make(map[string]bool)
	add := func(t target, files []string) {
		if len(files) > 0 && !seen[t.path] {
			seen[t.path] = true
			nodes = append(nodes, &treeNode{target: t, files: files})
		}
	}
	for _, t := range targets {
		bp, err := l.ScanDir(t.dir)
		if err != nil {
			return nil, fmt.Errorf("lint: scanning %s: %w", t.dir, err)
		}
		if bp == nil {
			continue
		}
		add(t, slices.Concat(bp.GoFiles, bp.TestGoFiles))
		add(target{dir: t.dir, path: t.path + "_test"}, bp.XTestGoFiles)
	}
	return nodes, nil
}

// runOnePackage runs the analyzers over one package and returns its
// directive-filtered findings. What an analyzer that does not apply to
// tests reports in a _test.go file is dropped before suppression, so
// test code needs no directive for it.
func runOnePackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
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
		})
	}
	ignores, malformed := collectIgnores(pkg)
	diags = suppress(diags, ignores)
	// Malformed directives are findings in their own right — a missing
	// reason breaks the suite's audit trail — and cannot be suppressed.
	return append(diags, malformed...)
}

// parallel calls fn(i) for every i in [0, n) across GOMAXPROCS
// workers.
func parallel(n int, fn func(int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
