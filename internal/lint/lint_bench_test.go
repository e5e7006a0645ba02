package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// BenchmarkLintTree times one run of the suite over the whole module:
// loader construction, parsing (test files included), type-checking
// (each package's imports from source, on demand), and every analyzer
// over every package — the work `make lint` does, with Run fanning the
// packages across GOMAXPROCS workers. `make bench-lint` runs it; the
// result is recorded in BENCH_lint.json so a change that regresses
// lint latency shows up in review.
func BenchmarkLintTree(b *testing.B) {
	dirs := moduleDirs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, err := Run("../..", dirs, Analyzers())
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("tree is not lint-clean: %s", diags[0])
		}
	}
}

// moduleDirs lists the module's package directories the same way
// vmplint's ./... expansion does.
func moduleDirs(b *testing.B) []string {
	b.Helper()
	root := filepath.Join("..", "..")
	var dirs []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return nil
		}
		name := info.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return dirs
}
