// Command vmplint runs the project's invariant analyzers (package
// internal/lint) over one or more packages: nondeterminism, maporder,
// frozenwrite, lockdiscipline, errcheck, ctxflow, httpdiscipline and
// fsyncdiscipline — the machine-checked contracts behind
// byte-identical figure rendering, the race-free serving plane, and the
// WAL's crash durability.
//
// Usage:
//
//	vmplint               # whole module (./...)
//	vmplint ./...         # the same
//	vmplint ./internal/wal ./cmd/...
//
// There are no flags. Every run is one whole-program pass: each package
// is loaded with its _test.go files (in-package and external), analyzed
// after its dependencies with their summaries in scope, and each
// analyzer's findings in test files are kept only if the analyzer
// declares that it applies there (nondeterminism, maporder,
// httpdiscipline, fsyncdiscipline) — tests are free to drop errors and
// sleep, not to depend on the wall clock or map iteration order. A
// finding is one line on stdout:
//
//	file:line:col: [analyzer] message
//
// Exit status is 0 when clean, 1 when findings were reported, and 2
// on usage or load errors. Findings are suppressed one line at a time
// with `//lint:ignore <analyzer> <reason>` on, or directly above, the
// offending line.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vmp/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: vmplint [packages]   (default ./...; no flags)\n\nanalyzers:")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmplint:", err)
		return 2
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmplint:", err)
		return 2
	}
	diags, err := lint.Run(root, dirs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmplint:", err)
		return 2
	}
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.File); err == nil && !strings.HasPrefix(rel, "..") {
			d.File = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vmplint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// expandPatterns resolves package patterns to directories. A pattern
// ending in /... walks the subtree; anything else names one package
// directory. testdata, hidden, and VCS directories are skipped.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "/...")
		if base == "." || base == "" {
			base = root
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.Walk(base, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !info.IsDir() {
				return nil
			}
			name := info.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}
