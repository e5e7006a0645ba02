// Command vmpmutants runs the mutant ledger. Each file under
// testdata/mutants/ is a seeded mutant of production code (a file, an
// exact snippet and its replacement), the test that must fail on it,
// and, for a row written to retire an analyzer, that analyzer's verdict
// on the mutant, taken while it existed. Through an overlay — the tree
// is never written — it runs the test under `go test -json` with the
// overlay in GOFLAGS, which reaches a `go build` the test itself runs.
// A stale snippet, a test that did not run (the mutant does not build,
// or -run matches nothing) or passed fails the run; a hang the row's
// -timeout ends is a kill. So does the retirement rule: an analyzer
// named on record must keep at least three rows, the evidence it was
// deleted on. Outcomes are appended to .mutants/collected.jsonl, and
// docs/mutants.md is regenerated when every row holds. Run it from the
// module root, with no flags (make mutants). A row file is "key: value"
// lines (why, file, pkg, test, flags, and optionally "lint: <analyzer>
// caught|silent [(note)]"), then the snippets under "-- old --" and
// "-- new --".
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"vmp/internal/simclock"
)

// minRows is the retirement rule: an analyzer goes only on the strength
// of at least this many rows that its tests kill.
const minRows = 3

type row struct {
	name, why, file, pkg, test string
	flags                      []string
	lint, analyzer, verdict    string // "<analyzer> <verdict> [(note)]": the retired analyzer meant to catch the mutant, and its verdict on record
	old, new                   string
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vmpmutants:", err)
		os.Exit(1)
	}
}

func run() error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "mutants", "*.txt"))
	if err != nil || len(paths) == 0 {
		return fmt.Errorf("no rows under testdata/mutants (run from the module root): %v", err)
	}
	rows := make([]row, len(paths))
	for i, path := range paths { // Glob sorts them
		if rows[i], err = parseRow(path); err != nil {
			return err
		}
	}
	if err := retirementRule(rows); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "vmpmutants")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(tmp) }()
	if err := os.MkdirAll(filepath.Join(root, ".mutants"), 0o755); err != nil {
		return err
	}
	collected, err := os.OpenFile(filepath.Join(root, ".mutants", "collected.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() { _ = collected.Close() }()
	log := json.NewEncoder(collected)
	var failed []string
	for _, r := range rows {
		if err := runRow(root, tmp, r, log); err != nil {
			fmt.Println("FAIL", err)
			failed = append(failed, err.Error())
			continue
		}
		fmt.Printf("ok   %s: %s killed\n", r.name, r.test)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d rows failed:\n%s", len(failed), len(rows), strings.Join(failed, "\n"))
	}
	return os.WriteFile(filepath.Join(root, "docs", "mutants.md"), table(rows), 0o644)
}

// retirementRule fails when an analyzer on record has fewer than
// minRows rows.
func retirementRule(rows []row) error {
	count := map[string]int{}
	for _, r := range rows {
		if r.analyzer != "" {
			count[r.analyzer]++
		}
	}
	var short []string
	for a, n := range count {
		if n < minRows {
			short = append(short, fmt.Sprintf("%s has %d", a, n))
		}
	}
	if len(short) > 0 {
		slices.Sort(short)
		return fmt.Errorf("retirement rule: every analyzer on record needs %d rows; %s", minRows, strings.Join(short, ", "))
	}
	return nil
}

// runRow applies one row's mutant and runs its test over it.
func runRow(root, tmp string, r row, log *json.Encoder) error {
	target := filepath.Join(root, r.file)
	src, err := os.ReadFile(target)
	if err != nil {
		return err
	}
	if n := strings.Count(string(src), r.old); n != 1 {
		return fmt.Errorf("%s: stale: the old snippet occurs %d times in %s, want once", r.name, n, r.file)
	}
	mutated := []byte(strings.Replace(string(src), r.old, r.new, 1))
	mfile, ofile := filepath.Join(tmp, r.name+".go"), filepath.Join(tmp, r.name+".json")
	overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {target: mfile}}) // strings always marshal
	if err := errors.Join(os.WriteFile(mfile, mutated, 0o644), os.WriteFile(ofile, overlay, 0o644)); err != nil {
		return err
	}
	clock := simclock.Wall()
	start := clock.Now()
	if err := testArm(root, r, ofile); err != nil {
		return err
	}
	return log.Encode(map[string]any{"row": r.name, "arm": "tests", "outcome": "killed", "test": r.test, "seconds": clock.Now().Sub(start).Seconds()})
}

// parseRow reads one row file.
func parseRow(path string) (row, error) {
	r := row{name: strings.TrimSuffix(filepath.Base(path), ".txt")}
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	head, rest, ok := strings.Cut(string(b), "-- old --\n")
	r.old, r.new, _ = strings.Cut(rest, "-- new --\n")
	h := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(head), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		h[k] = v
	}
	r.why, r.file, r.pkg, r.test, r.flags = h["why"], filepath.FromSlash(h["file"]), h["pkg"], h["test"], strings.Fields(h["flags"])
	r.lint = h["lint"]
	if f := strings.Fields(r.lint); len(f) > 1 {
		r.analyzer, r.verdict = f[0], f[1]
	}
	if !ok || !strings.Contains(rest, "-- new --\n") || r.old == "" || r.why == "" || r.file == "" || r.pkg == "" || r.test == "" ||
		(r.lint != "" && r.verdict != "caught" && r.verdict != "silent") {
		return r, fmt.Errorf("%s: want why, file, pkg, test, flags and optionally lint (\"<analyzer> caught|silent\") lines, then -- old -- and -- new -- sections", r.name)
	}
	return r, nil
}

// testArm runs the row's test on the overlay. It returns nil only when
// the -json events show the test ran and did not pass: it failed, or
// the binary died under it (a panic, or the -timeout ending a hang).
func testArm(root string, r row, overlay string) error {
	args := append([]string{"test", "-json", "-run", "^" + r.test + "$"}, r.flags...)
	cmd := exec.Command("go", append(args, r.pkg)...)
	var stderr bytes.Buffer
	cmd.Dir, cmd.Stderr = root, &stderr
	// The overlay rides GOFLAGS, not the command line, so a test that
	// builds the commands it runs (TestScenarios) builds the mutant too.
	cmd.Env = append(os.Environ(), "GOFLAGS="+strings.TrimSpace(os.Getenv("GOFLAGS")+" -overlay="+overlay))
	out, err := cmd.Output()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		return fmt.Errorf("%s: %w", r.name, err)
	}
	ran, passed := false, false
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var ev struct{ Action, Test, Output string }
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("%s: reading go test -json: %w", r.name, err)
		}
		switch {
		case ev.Action == "build-output":
			stderr.WriteString(ev.Output)
		case ev.Test != r.test:
		case ev.Action == "run":
			ran = true
		case ev.Action == "pass" || ev.Action == "skip":
			passed = true
		}
	}
	if !ran {
		return fmt.Errorf("%s: %s did not run — the mutant does not build, or -run matches nothing\n%s", r.name, r.test, stderr.String())
	}
	if passed {
		return fmt.Errorf("%s: survived: %s passed on the mutant", r.name, r.test)
	}
	return nil
}

// table renders docs/mutants.md: a row per file, in file-name order,
// and nothing that varies from run to run.
func table(rows []row) []byte {
	var b bytes.Buffer
	b.WriteString("# Mutant ledger\n\nGenerated by `make mutants` (`cmd/vmpmutants`) from `testdata/mutants/`; do not edit." +
		" \"On record\" is the verdict of the analyzer (or its rule) the row was written for, taken while it existed;" +
		" every analyzer has since been retired, and one on record keeps at least three rows.\n\n" +
		"| mutant | what it breaks | killed by | on record |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| `%s` | %s | `%s` `%s` (`%s`) | %s |\n",
			r.name, r.why, r.pkg, r.test, strings.Join(r.flags, " "), cmp.Or(r.lint, "—"))
	}
	return b.Bytes()
}
