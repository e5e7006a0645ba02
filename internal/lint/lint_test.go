package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// Fixture packages under testdata/ carry their expected findings as
// golden comments in the analysis/go style:
//
//	code() // want <analyzer> "<message regexp>"
//
// checkFixture runs the full suite over a fixture and requires an
// exact match: every diagnostic must be claimed by a want on its line,
// and every want must be claimed by a diagnostic.
var wantRe = regexp.MustCompile(`// want ([a-z]+) "([^"]+)"`)

type expectation struct {
	file     string // base name of the fixture file
	line     int
	analyzer string
	re       *regexp.Regexp
	matched  bool
}

// runFixtures runs the driver over fixture directories under
// testdata/, each posed under the import path given beside it.
func runFixtures(t *testing.T, analyzers []*Analyzer, dirPath ...string) []Diagnostic {
	t.Helper()
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	var targets []target
	for i := 0; i < len(dirPath); i += 2 {
		targets = append(targets, target{dir: filepath.Join("testdata", dirPath[i]), path: dirPath[i+1]})
	}
	diags, err := run(loader, targets, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join("testdata", dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), line, m[2], err)
				}
				wants = append(wants, &expectation{
					file: e.Name(), line: line, analyzer: m[1], re: re,
				})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	return wants
}

func claim(wants []*expectation, d Diagnostic) bool {
	base := filepath.Base(d.File)
	for _, w := range wants {
		if w.matched || w.file != base || w.line != d.Line || w.analyzer != d.Analyzer {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func checkFixture(t *testing.T, dir, path string) {
	t.Helper()
	checkWants(t, runFixtures(t, Analyzers(), dir, path), collectWants(t, dir))
}

// checkWants requires diags and wants to claim each other exactly.
func checkWants(t *testing.T, diags []Diagnostic, wants []*expectation) {
	t.Helper()
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s finding matching %q", w.file, w.line, w.analyzer, w.re)
		}
	}
}

func TestNondeterminismFixture(t *testing.T) { checkFixture(t, "nondet", "vmp/internal/nondetfix") }

func TestLockDisciplineFixture(t *testing.T) {
	checkFixture(t, "lockdiscipline", "vmp/internal/lockfix")
}

func TestErrCheckFixture(t *testing.T) { checkFixture(t, "errcheck", "vmp/internal/errfix") }

func TestCtxFlowFixture(t *testing.T) { checkFixture(t, "ctxflow", "vmp/internal/ctxfix") }

func TestIgnoreDirectives(t *testing.T) { checkFixture(t, "ignore", "vmp/internal/ignorefix") }

// TestV3AnalyzersScopedToModule reloads the fsyncdiscipline fixture
// under an external import path that contains
// vmp/internal/ without starting with it: the suite polices the
// module's own vmp/internal and vmp/cmd prefixes, not paths that
// merely mention them.
func TestV3AnalyzersScopedToModule(t *testing.T) {
	for _, d := range runFixtures(t, Analyzers(), "fsyncdiscipline", "example.com/vmp/internal/outside") {
		t.Errorf("unexpected finding outside vmp/internal and vmp/cmd: %s", d)
	}
}

// TestSimclockExemption proves wall-clock reads are legal in the one
// package that owns the clock.
func TestSimclockExemption(t *testing.T) {
	for _, d := range runFixtures(t, Analyzers(), "simclockpose", "vmp/internal/simclock") {
		t.Errorf("unexpected finding inside simclock: %s", d)
	}
}

// TestErrCheckScopedToModule reloads the errcheck fixture under an
// external import path, which the analyzer does not police.
func TestErrCheckScopedToModule(t *testing.T) {
	for _, d := range runFixtures(t, Analyzers(), "errcheck", "example.com/outside") {
		t.Errorf("unexpected finding outside vmp/internal and vmp/cmd: %s", d)
	}
}

// TestConcurrencyAnalyzersScopedToModule reloads the concurrency
// fixture under an external import path; the whole v2 suite is scoped
// to vmp/internal and vmp/cmd.
func TestConcurrencyAnalyzersScopedToModule(t *testing.T) {
	for _, dir := range []string{"ctxflow"} {
		for _, d := range runFixtures(t, Analyzers(), dir, "example.com/outside") {
			t.Errorf("%s: unexpected finding outside vmp/internal and vmp/cmd: %s", dir, d)
		}
	}
}

// TestSelfLint runs the full suite over the lint package and its
// command: the analyzers hold their own code to the same contracts
// they enforce on the rest of the tree.
func TestSelfLint(t *testing.T) {
	diags, err := Run("../..", []string{".", filepath.Join("..", "..", "cmd", "vmplint")}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("self-lint finding: %s", d)
	}
}

// TestLoadDirTests pins the shape a requested directory is scheduled
// and loaded in: in-package test files merge into the package, and the
// external _test package is a node of its own, under its own path,
// holding the external test files.
func TestLoadDirTests(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	const path = "vmp/internal/manifest"
	nodes, err := scanTree(loader, []target{{dir: filepath.Join("..", "manifest"), path: path}})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].path != path || nodes[1].path != path+"_test" {
		t.Fatalf("nodes = %v, want the package and its external test", nodes)
	}
	merged, xtest := nodes[0], nodes[1]
	if !slices.ContainsFunc(merged.files, func(name string) bool { return strings.HasSuffix(name, "_test.go") }) {
		t.Errorf("merged package files = %v, want in-package _test.go files among them", merged.files)
	}
	if slices.ContainsFunc(xtest.files, func(name string) bool { return !strings.HasSuffix(name, "_test.go") }) {
		t.Errorf("external test files = %v, want _test.go files only", xtest.files)
	}
	for _, n := range nodes {
		pkg, err := loader.Load(n.dir, n.path, n.files)
		if err != nil {
			t.Fatal(err)
		}
		if pkg.Path != n.path || len(pkg.Files) != len(n.files) {
			t.Errorf("Load(%s) = path %q, %d files, want %d", n.path, pkg.Path, len(pkg.Files), len(n.files))
		}
	}
}

// TestAnalyzerSubset checks that the driver runs the analyzers it is
// handed and no others.
func TestAnalyzerSubset(t *testing.T) {
	if diags := runFixtures(t, []*Analyzer{ErrCheck}, "nondet", "vmp/internal/nondetfix"); len(diags) != 0 {
		t.Errorf("errcheck alone reported %d findings on the nondet fixture, want 0", len(diags))
	}
	if diags := runFixtures(t, Analyzers(), "nondet", "vmp/internal/nondetfix"); len(diags) == 0 {
		t.Error("full suite reported no findings on the nondet fixture")
	}
}

// TestRunDeterministic pins the parallel scheduler's contract: fanning
// packages out across workers yields the same findings, in the same
// sorted order, every time — the union of what each package reports
// when run on its own.
func TestRunDeterministic(t *testing.T) {
	fixtures := []string{
		"nondet", "vmp/internal/nondetfix",
		"lockdiscipline", "vmp/internal/lockfix",
		"errcheck", "vmp/internal/errfix",
		"fsyncdiscipline", "vmp/internal/fsyncfix",
	}
	var apart []Diagnostic
	for i := 0; i < len(fixtures); i += 2 {
		apart = append(apart, runFixtures(t, Analyzers(), fixtures[i], fixtures[i+1])...)
	}
	apart = sortDedup(apart)
	if len(apart) == 0 {
		t.Fatal("fixture packages produced no findings")
	}
	for round := 0; round < 4; round++ {
		together := runFixtures(t, Analyzers(), fixtures...)
		if len(together) != len(apart) {
			t.Fatalf("round %d: %d findings together, %d apart", round, len(together), len(apart))
		}
		for i := range together {
			if together[i] != apart[i] {
				t.Errorf("round %d: finding %d differs: together %s, apart %s", round, i, together[i], apart[i])
			}
		}
	}
}

func TestFsyncDisciplineFixture(t *testing.T) {
	checkFixture(t, "fsyncdiscipline", "vmp/internal/fsyncfix")
}

// TestV4AnalyzersScopedToModule reloads the v4 fixture under an
// external import path; fsyncdiscipline polices only vmp/internal and
// vmp/cmd.
func TestV4AnalyzersScopedToModule(t *testing.T) {
	for _, dir := range []string{"fsyncdiscipline"} {
		for _, d := range runFixtures(t, Analyzers(), dir, "example.com/outside") {
			t.Errorf("%s: unexpected finding outside vmp/internal and vmp/cmd: %s", dir, d)
		}
	}
}

// TestAnalyzersApplyToTestFilesByDeclaration pins the one-pass rule on
// a package whose _test.go drops an error and reads the wall clock:
// nondeterminism (Tests) reports there, errcheck (not Tests) does not.
func TestAnalyzersApplyToTestFilesByDeclaration(t *testing.T) {
	checkFixture(t, "testfiles", "vmp/internal/testfilesfix")
	if !Nondeterminism.Tests || ErrCheck.Tests {
		t.Fatal("fixture assumes nondeterminism applies to tests and errcheck does not")
	}
}

// writeModule lays files (slash paths under the root) out as a
// throwaway module named vmp and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module vmp\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestRunExternalTestImportsDependent is the import shape `go test`
// allows and a directory-per-node graph would make cyclic: omega's
// external test package imports alpha, and alpha imports omega. The
// external test is a node of its own, loaded after omega's importers
// have type-checked omega from source, and both packages report.
func TestRunExternalTestImportsDependent(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/omega/omega.go": `// Package omega reads the wall clock.
package omega

import "time"

// Stamp returns the wall-clock time.
func Stamp() time.Time { return time.Now() }
`,
		"internal/omega/omega_x_test.go": `package omega_test

import "vmp/internal/alpha"

var _ = alpha.Since
`,
		"internal/alpha/alpha.go": `// Package alpha measures from omega's stamp.
package alpha

import (
	"time"

	"vmp/internal/omega"
)

// Since returns the time elapsed since omega's stamp.
func Since() time.Duration { return time.Since(omega.Stamp()) }
`,
	})
	dirs := []string{filepath.Join(root, "internal", "alpha"), filepath.Join(root, "internal", "omega")}
	diags, err := Run(root, dirs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || diags[0].Analyzer != "nondeterminism" || diags[1].Analyzer != "nondeterminism" ||
		filepath.Base(diags[0].File) != "alpha.go" || filepath.Base(diags[1].File) != "omega.go" {
		t.Fatalf("findings = %v, want alpha's nondeterminism finding and omega's", diags)
	}
}
