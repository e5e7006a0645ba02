package lint

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// target is one directory to lint and the import path its package is
// analyzed under. Run derives the path from the module root; fixture
// tests pose a testdata directory under a path of their choosing to
// reach the analyzers' path-scoped rules.
type target struct {
	dir, path string
}

// treeNode is one package scheduled for analysis, in the shape `go
// test` compiles and for the same reason — it is acyclic where a node
// per directory is not, since an external test may import packages that
// import the one it tests. A requested directory is up to two nodes:
// the package with its in-package _test.go files merged in, and the
// external test package (path + "_test") when one exists. A dependency
// is one node, loaded without test files for its summary alone.
type treeNode struct {
	target
	files     []string // file names in dir
	requested bool     // findings reported (vs. loaded only for its summary)
	deps      []string // module-local imports
}

// Run is the one driver, behind vmplint and every test: header-scan
// the packages in dirs and their module-local import closure, walk the
// import DAG dependencies first — each package loaded with its
// _test.go files, analyzed with its dependencies' summaries in scope,
// its own summary published — and return the requested packages'
// findings, sorted and deduplicated. Packages pulled in only as
// dependencies publish summaries and report nothing.
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
	index := make(map[string]int, len(nodes))
	for i, n := range nodes {
		index[n.path] = i
	}
	deps := make([][]int, len(nodes))
	for i, n := range nodes {
		for _, d := range n.deps {
			if j, ok := index[d]; ok {
				deps[i] = append(deps[i], j)
			}
		}
	}

	prog := NewProgram()
	findings := make([][]Diagnostic, len(nodes))
	errs := make([]error, len(nodes))
	var loaderMu sync.Mutex // the Loader is not safe for concurrent use
	runDAG(deps, func(i int) {
		n := nodes[i]
		loaderMu.Lock()
		pkg, err := loader.Load(n.dir, n.path, n.files)
		loaderMu.Unlock()
		if err != nil {
			errs[i] = err
			return
		}
		findings[i] = runOnePackage(pkg, prog, analyzers)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var merged []Diagnostic
	for i, n := range nodes {
		if n.requested {
			merged = append(merged, findings[i]...)
		}
	}
	return sortDedup(merged), nil
}

// scanTree header-scans the requested targets, then expands the
// module-local import closure so every dependency becomes a
// (non-reporting) node whose summary the dependents can consume.
// Nodes come back sorted by import path.
func scanTree(l *Loader, targets []target) ([]*treeNode, error) {
	byPath := make(map[string]*treeNode)
	var queue []string // import paths pending a dependency scan
	add := func(t target, requested bool, files, imports []string) {
		if len(files) == 0 {
			return
		}
		n := &treeNode{target: t, files: files, requested: requested}
		byPath[t.path] = n
		for _, imp := range imports {
			if imp != l.modulePath && !strings.HasPrefix(imp, l.modulePath+"/") {
				continue
			}
			n.deps = append(n.deps, imp)
			if _, ok := byPath[imp]; !ok {
				byPath[imp] = nil // reserve; scanned below
				queue = append(queue, imp)
			}
		}
	}
	for _, t := range targets {
		if byPath[t.path] != nil {
			continue
		}
		bp, err := l.ScanDir(t.dir)
		if err != nil {
			return nil, fmt.Errorf("lint: scanning %s: %w", t.dir, err)
		}
		if bp == nil {
			continue
		}
		add(t, true, slices.Concat(bp.GoFiles, bp.TestGoFiles), slices.Concat(bp.Imports, bp.TestImports))
		add(target{dir: t.dir, path: t.path + "_test"}, true, bp.XTestGoFiles, bp.XTestImports)
	}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if byPath[path] != nil {
			continue // already scanned as a requested target
		}
		dir := l.dirFor(path)
		bp, err := l.ScanDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: scanning dependency %s: %w", path, err)
		}
		if bp != nil {
			add(target{dir: dir, path: path}, false, bp.GoFiles, bp.Imports)
		}
	}
	paths := make([]string, 0, len(byPath))
	for path, n := range byPath {
		if n != nil {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	nodes := make([]*treeNode, 0, len(paths))
	for _, path := range paths {
		nodes = append(nodes, byPath[path])
	}
	return nodes, nil
}
