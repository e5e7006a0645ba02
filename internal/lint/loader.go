package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Package is one type-checked lint target: its syntax (with comments,
// for //lint:ignore directives), its type information, and the import
// path the analyzers use for scoping decisions.
type Package struct {
	Path  string // import path, e.g. "vmp/internal/telemetry"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages from source using only the
// standard library: module-local import paths map onto directories
// under the module root, and everything else resolves from GOROOT/src
// (the srcimporter strategy). It never shells out to the go tool, so
// lint runs are hermetic and deterministic.
//
// A Loader is not safe for concurrent use.
type Loader struct {
	Fset *token.FileSet

	ctx        build.Context
	root       string // module root directory (holds go.mod)
	modulePath string // module path declared in go.mod

	imported  map[string]*types.Package // completed dependency imports
	importing map[string]bool           // cycle guard
	overlay   map[string][]byte         // absolute file path → contents read instead of the disk's
}

// NewLoader returns a loader rooted at the module directory containing
// go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modulePath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	// Type-check the pure-Go variants of stdlib packages so the loader
	// never needs a C toolchain.
	ctx.CgoEnabled = false
	return &Loader{
		Fset:       token.NewFileSet(),
		ctx:        ctx,
		root:       abs,
		modulePath: modulePath,
		imported:   make(map[string]*types.Package),
		importing:  make(map[string]bool),
	}, nil
}

// overlaid makes each file named in overlay read as the bytes given,
// in the build-constraint scan and the parse alike.
func (l *Loader) overlaid(overlay map[string][]byte) {
	l.overlay = overlay
	l.ctx.OpenFile = func(path string) (io.ReadCloser, error) {
		if b, ok := overlay[path]; ok {
			return io.NopCloser(bytes.NewReader(b)), nil
		}
		return os.Open(path)
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("lint: locating module: %w", err)
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("lint: no module directive in %s", path)
}

// dirFor maps an import path to the directory holding its source.
func (l *Loader) dirFor(path string) string {
	if path == l.modulePath {
		return l.root
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.root, filepath.FromSlash(rest))
	}
	dir := filepath.Join(l.ctx.GOROOT, "src", filepath.FromSlash(path))
	if _, err := os.Stat(dir); err != nil {
		// The standard library vendors its golang.org/x dependencies.
		if vendored := filepath.Join(l.ctx.GOROOT, "src", "vendor", filepath.FromSlash(path)); dirExists(vendored) {
			return vendored
		}
	}
	return dir
}

func dirExists(dir string) bool {
	info, err := os.Stat(dir)
	return err == nil && info.IsDir()
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.importPkg(path)
}

// ImportFrom implements types.ImporterFrom; srcDir is ignored because
// the loader resolves purely by import path.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	return l.importPkg(path)
}

func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.imported[path]; ok {
		return pkg, nil
	}
	if l.importing[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.importing[path] = true
	defer func() { l.importing[path] = false }()

	files, err := l.parseDir(l.dirFor(path), parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("lint: importing %q: %w", path, err)
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking import %q: %w", path, err)
	}
	l.imported[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files build-selected for the
// directory.
func (l *Loader) parseDir(dir string, mode parser.Mode) ([]*ast.File, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	return l.parseFiles(dir, bp.GoFiles, mode)
}

// parseFiles parses the named files in dir.
func (l *Loader) parseFiles(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(dir, name)
		var src any
		if b, ok := l.overlay[path]; ok {
			src = b
		}
		f, err := parser.ParseFile(l.Fset, path, src, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// pathFor derives a directory's import path from the module root.
func (l *Loader) pathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// Load parses (with comments, for the //lint:ignore directives) and
// type-checks the named files of dir as one lint target under the given
// import path. Fixture packages pose under paths that reach the
// analyzers' path-scoped rules, e.g. a testdata package posing as
// vmp/internal/telemetry.
func (l *Loader) Load(dir, path string, names []string) (*Package, error) {
	files, err := l.parseFiles(dir, names, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %w", dir, err)
	}
	return l.checkFiles(dir, path, files)
}

// ScanDir reads a directory's build metadata without parsing bodies or
// type-checking: the build-selected file names, production, in-package
// test and external test each apart — what Run needs to lay out its
// nodes before loading anything. It returns nil for a directory with
// no Go files.
func (l *Loader) ScanDir(dir string) (*build.Package, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if _, noGo := err.(*build.NoGoError); noGo {
		return nil, nil
	}
	return bp, err
}

// checkFiles type-checks already-parsed files as one lint target under
// the given import path.
func (l *Loader) checkFiles(dir, path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", dir, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: pkg, Info: info}, nil
}
