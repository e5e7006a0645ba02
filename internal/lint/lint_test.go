package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
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

func TestMapOrderFixture(t *testing.T) { checkFixture(t, "maporder", "vmp/internal/maporderfix") }

func TestFrozenWriteFixture(t *testing.T) {
	checkFixture(t, "frozenwrite", "vmp/internal/frozenfix")
}

func TestLockDisciplineFixture(t *testing.T) {
	checkFixture(t, "lockdiscipline", "vmp/internal/lockfix")
}

func TestErrCheckFixture(t *testing.T) { checkFixture(t, "errcheck", "vmp/internal/errfix") }

func TestCtxFlowFixture(t *testing.T) { checkFixture(t, "ctxflow", "vmp/internal/ctxfix") }

func TestIgnoreDirectives(t *testing.T) { checkFixture(t, "ignore", "vmp/internal/ignorefix") }

func TestHTTPDisciplineFixture(t *testing.T) {
	checkFixture(t, "httpdiscipline", "vmp/internal/httpfix")
}

// TestV3AnalyzersScopedToModule reloads the httpdiscipline fixture
// under an external import path; like the rest of the suite, it polices
// only vmp/internal and vmp/cmd.
func TestV3AnalyzersScopedToModule(t *testing.T) {
	for _, d := range runFixtures(t, Analyzers(), "httpdiscipline", "example.com/outside") {
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

// TestFrozenWriteExemptInsideTelemetry reloads the frozenwrite fixture
// under a pose path inside internal/telemetry, where the writes are
// the owning package's business.
func TestFrozenWriteExemptInsideTelemetry(t *testing.T) {
	for _, d := range runFixtures(t, Analyzers(), "frozenwrite", "vmp/internal/telemetry/pose") {
		t.Errorf("unexpected finding inside telemetry: %s", d)
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
// depending on the package it tests.
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
	byPath := make(map[string]*treeNode)
	for _, n := range nodes {
		byPath[n.path] = n
	}
	merged, xtest := byPath[path], byPath[path+"_test"]
	if merged == nil || xtest == nil || !merged.requested || !xtest.requested {
		t.Fatalf("nodes = %v, %v, want the package and its external test, both requested", merged, xtest)
	}
	if !slices.ContainsFunc(merged.files, func(name string) bool { return strings.HasSuffix(name, "_test.go") }) {
		t.Errorf("merged package files = %v, want in-package _test.go files among them", merged.files)
	}
	if !slices.Contains(xtest.deps, path) {
		t.Errorf("external test deps = %v, want %s among them", xtest.deps, path)
	}
	for _, n := range []*treeNode{merged, xtest} {
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
	if diags := runFixtures(t, []*Analyzer{MapOrder}, "nondet", "vmp/internal/nondetfix"); len(diags) != 0 {
		t.Errorf("maporder alone reported %d findings on the nondet fixture, want 0", len(diags))
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
		"maporder", "vmp/internal/maporderfix",
		"frozenwrite", "vmp/internal/frozenfix",
		"httpdiscipline", "vmp/internal/httpfix",
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

// TestRunDAGBreaksCycleLocally pins what a cycle costs the scheduler:
// 1 and 2 wait on each other, 0 waits on 1 and 3 on 0. One node of the
// cycle runs early; everything else still runs after its dependencies.
func TestRunDAGBreaksCycleLocally(t *testing.T) {
	var mu sync.Mutex
	var order []int
	runDAG([][]int{{1}, {2}, {1}, {0}}, func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	at := func(i int) int { return slices.Index(order, i) }
	if len(order) != 4 || at(1) != 0 || at(0) < at(1) || at(2) < at(1) || at(3) < at(0) {
		t.Fatalf("order = %v, want 1 first, then 0 and 2, then 3", order)
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

// crosspkgAlias and crosspkgUse are the real module paths of the
// cross-package laundering fixture: use imports alias by this path, so
// the pair loads exactly as tree packages do.
const (
	crosspkgAlias = "vmp/internal/lint/testdata/crosspkg/alias"
	crosspkgUse   = "vmp/internal/lint/testdata/crosspkg/use"
)

// TestCrossPackageLaundering pins the whole-program summaries: a
// telemetry accessor wrapped by an exported helper in another package
// does not launder its taint. Asked for use/ alone, the driver pulls
// alias/ in along the import DAG and the mutation in use/ is a finding.
func TestCrossPackageLaundering(t *testing.T) {
	diags := runFixtures(t, Analyzers(), filepath.Join("crosspkg", "use"), crosspkgUse)
	checkWants(t, diags, collectWants(t, filepath.Join("crosspkg", "use")))
}

// TestPackageSummaryFacts pins the exported-fact surface the
// cross-package analyses rest on: summaries key functions by their
// fully qualified name and carry the taint facts dependents consume.
func TestPackageSummaryFacts(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(filepath.Join("testdata", "crosspkg", "alias"), crosspkgAlias, []string{"alias.go"})
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram()
	runOnePackage(pkg, prog, Analyzers())
	sum := prog.Summary(crosspkgAlias)
	if sum == nil {
		t.Fatalf("no summary published under %q", crosspkgAlias)
	}
	records := sum.Funcs[crosspkgAlias+".Records"]
	if !records.TaintFrozen {
		t.Errorf("Records facts = %+v, want TaintFrozen", records)
	}
	if _, ok := sum.Funcs[crosspkgAlias+".rows"]; ok {
		t.Error("unexported rows should not be published in the summary")
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

const depTelemetrySrc = `// Package telemetry poses as the frozen dataset's package.
package telemetry

// Dataset is a frozen dataset.
type Dataset struct{ hits []int }

// Hits returns the dataset's counters: a view, not a copy.
func (d *Dataset) Hits() []int { return d.hits }
`

const depAlphaSrc = `// Package alpha is a dependency: one finding of its own, one exported
// helper returning a frozen dataset's view.
package alpha

import (
	"time"

	"vmp/internal/telemetry"
)

// Stamp returns the wall-clock time.
func Stamp() time.Time { return time.Now() }

// Hits returns the dataset's counters.
func Hits(d *telemetry.Dataset) []int { return d.Hits() }
`

const depBetaSrc = `// Package beta writes what alpha.Hits returned; only alpha's summary
// says that is a frozen dataset's view.
package beta

import (
	"vmp/internal/alpha"
	"vmp/internal/telemetry"
)

// Bump counts a hit.
func Bump(d *telemetry.Dataset) { alpha.Hits(d)[0]++ }
`

// writeModule lays files (slash paths under the root, go.mod included)
// out as a throwaway module named vmp and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module vmp\n\ngo 1.22\n"
	files["internal/telemetry/telemetry.go"] = depTelemetrySrc
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

// TestRunTreeDependencySummariesWithoutRequest checks that a package
// imported by a requested one is pulled in for its summary — the write
// in beta is a finding only because alpha's facts say Hits returns a
// frozen dataset's view — without reporting its own findings.
func TestRunTreeDependencySummariesWithoutRequest(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/alpha/alpha.go": depAlphaSrc,
		"internal/beta/beta.go":   depBetaSrc,
	})
	alphaDir := filepath.Join(root, "internal", "alpha")
	betaDir := filepath.Join(root, "internal", "beta")
	diags, err := Run(root, []string{betaDir}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "frozenwrite" {
		t.Fatalf("beta alone: findings = %v, want its one frozenwrite finding (alpha's summary incriminates the write; alpha's own finding is not requested)", diags)
	}
	diags, err = Run(root, []string{alphaDir, betaDir}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || diags[0].Analyzer != "nondeterminism" || diags[1].Analyzer != "frozenwrite" {
		t.Fatalf("alpha and beta: findings = %v, want alpha's nondeterminism finding and beta's", diags)
	}
	// The control: without alpha's summary in the program the write is
	// not a finding, so the one above is the summary's doing.
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(betaDir, "vmp/internal/beta", []string{"beta.go"})
	if err != nil {
		t.Fatal(err)
	}
	if alone := runOnePackage(pkg, NewProgram(), Analyzers()); len(alone) != 0 {
		t.Fatalf("beta without alpha's summary: findings = %v, want none", alone)
	}
}

// TestRunExternalTestImportsDependent is the import shape `go test`
// allows and a directory-per-node graph would make cyclic: omega's
// external test package imports alpha, and alpha imports omega. The
// external test is its own node, so omega still publishes its summary
// before alpha — which sorts first — is analyzed, and alpha's write
// through omega.Hits is seen.
func TestRunExternalTestImportsDependent(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/omega/omega.go": strings.ReplaceAll(depAlphaSrc, "alpha", "omega"),
		"internal/omega/omega_x_test.go": `package omega_test

import "vmp/internal/alpha"

var _ = alpha.Bump
`,
		"internal/alpha/alpha.go": strings.NewReplacer("alpha", "omega", "beta", "alpha").Replace(depBetaSrc),
	})
	dirs := []string{filepath.Join(root, "internal", "alpha"), filepath.Join(root, "internal", "omega")}
	diags, err := Run(root, dirs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || diags[0].Analyzer != "frozenwrite" || diags[1].Analyzer != "nondeterminism" {
		t.Fatalf("findings = %v, want alpha's frozenwrite finding and omega's nondeterminism one", diags)
	}
}
