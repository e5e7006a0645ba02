// Command vmpmutants runs the mutant ledger. Each file under
// testdata/mutants/ is a seeded mutant of production code (a file, an
// exact snippet and its replacement), the test that must fail on it,
// and the recorded verdict of the analyzer meant to catch it. Through
// one overlay — the tree is never written — it runs the test under `go
// test -overlay -json` and the analyzers in process (lint.RunOverlay)
// over the package the mutated file belongs to, which need not be the
// one whose test kills it.
// A stale snippet, a test that did not run (the mutant does not build,
// or -run matches nothing) or passed, or a live analyzer's verdict off
// the record fails the run; a hang the row's -timeout ends is a kill.
// Outcomes are appended to .mutants/collected.jsonl, and
// docs/mutants.md is regenerated when every row holds. Run it from the
// module root, with no flags (make mutants). A row file is "key: value"
// lines (why, file, pkg, test, flags, "lint: <analyzer>
// caught|silent", and "retired: <rule>" when the verdict was taken for
// a rule since deleted from an analyzer that lives on), then the
// snippets under "-- old --" and "-- new --". A retired analyzer's or
// rule's verdict is history and is not re-checked.
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

	"vmp/internal/lint"
	"vmp/internal/simclock"
)

type row struct {
	name, why, file, pkg, test string
	flags                      []string
	lint, analyzer, verdict    string // "<analyzer> <verdict>": the analyzer meant to catch the mutant, and its verdict on record
	retired                    string // the analyzer's rule the verdict was taken for, deleted since
	old, new                   string
	found                      []string // analyzers that report the mutant today
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
	var rows []row
	var failed []string
	for _, path := range paths { // Glob sorts them
		r, err := runRow(root, tmp, path, log)
		if err != nil {
			fmt.Println("FAIL", err)
			failed = append(failed, err.Error())
			continue
		}
		fmt.Printf("ok   %s: %s killed; analyzers: %s\n", r.name, r.test, foundText(r.found))
		rows = append(rows, r)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d rows failed:\n%s", len(failed), len(paths), strings.Join(failed, "\n"))
	}
	return os.WriteFile(filepath.Join(root, "docs", "mutants.md"), table(rows), 0o644)
}

// runRow applies one row's mutant and runs both arms over it.
func runRow(root, tmp, path string, log *json.Encoder) (row, error) {
	r, err := parseRow(path)
	if err != nil {
		return r, err
	}
	target := filepath.Join(root, r.file)
	src, err := os.ReadFile(target)
	if err != nil {
		return r, err
	}
	if n := strings.Count(string(src), r.old); n != 1 {
		return r, fmt.Errorf("%s: stale: the old snippet occurs %d times in %s, want once", r.name, n, r.file)
	}
	mutated := []byte(strings.Replace(string(src), r.old, r.new, 1))
	mfile, ofile := filepath.Join(tmp, r.name+".go"), filepath.Join(tmp, r.name+".json")
	overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {target: mfile}}) // strings always marshal
	if err := errors.Join(os.WriteFile(mfile, mutated, 0o644), os.WriteFile(ofile, overlay, 0o644)); err != nil {
		return r, err
	}
	clock := simclock.Wall()
	start := clock.Now()
	if err := testArm(root, r, ofile); err != nil {
		return r, err
	}
	if err := log.Encode(map[string]any{"row": r.name, "arm": "tests", "outcome": "killed", "test": r.test, "seconds": clock.Now().Sub(start).Seconds()}); err != nil {
		return r, err
	}
	start = clock.Now()
	diags, err := lint.RunOverlay(root, map[string][]byte{target: mutated}, []string{filepath.Dir(target)}, lint.Analyzers())
	if err != nil {
		return r, fmt.Errorf("%s: lint arm: %w", r.name, err)
	}
	for _, d := range diags {
		if !slices.Contains(r.found, d.Analyzer) {
			r.found = append(r.found, d.Analyzer)
		}
	}
	slices.Sort(r.found)
	if err := log.Encode(map[string]any{"row": r.name, "arm": "lint", "outcome": foundText(r.found), "seconds": clock.Now().Sub(start).Seconds()}); err != nil {
		return r, err
	}
	live := r.retired == "" && slices.ContainsFunc(lint.Analyzers(), func(a *lint.Analyzer) bool { return a.Name == r.analyzer })
	if caught := slices.Contains(r.found, r.analyzer); live && caught != (r.verdict == "caught") {
		return r, fmt.Errorf("%s: the ledger records %s %s, but today it is %s", r.name, r.analyzer, r.verdict, foundText(r.found))
	}
	return r, nil
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
	r.lint, r.retired = h["lint"], h["retired"]
	r.analyzer, r.verdict, _ = strings.Cut(r.lint, " ")
	if !ok || !strings.Contains(rest, "-- new --\n") || r.old == "" || r.why == "" || r.file == "" || r.pkg == "" || r.test == "" ||
		(r.analyzer != "" && r.verdict != "caught" && r.verdict != "silent") || (r.retired != "" && r.analyzer == "") {
		return r, fmt.Errorf("%s: want why, file, pkg, test, flags and lint (\"<analyzer> caught|silent\") lines, then -- old -- and -- new -- sections", r.name)
	}
	return r, nil
}

// testArm runs the row's test on the overlay. It returns nil only when
// the -json events show the test ran and did not pass: it failed, or
// the binary died under it (a panic, or the -timeout ending a hang).
func testArm(root string, r row, overlay string) error {
	args := append([]string{"test", "-json", "-overlay", overlay, "-run", "^" + r.test + "$"}, r.flags...)
	cmd := exec.Command("go", append(args, r.pkg)...)
	var stderr bytes.Buffer
	cmd.Dir, cmd.Stderr = root, &stderr
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

func foundText(found []string) string {
	if len(found) == 0 {
		return "silent"
	}
	return "caught by " + strings.Join(found, ", ")
}

// table renders docs/mutants.md: a row per file, in file-name order,
// and nothing that varies from run to run.
func table(rows []row) []byte {
	var b bytes.Buffer
	b.WriteString("# Mutant ledger\n\nGenerated by `make mutants` (`cmd/vmpmutants`) from `testdata/mutants/`; do not edit." +
		" \"On record\" is the verdict of the analyzer (or its rule) the row was written for, taken while it existed.\n\n" +
		"| mutant | what it breaks | killed by | on record | analyzers today |\n|---|---|---|---|---|\n")
	for _, r := range rows {
		onRecord := cmp.Or(r.lint, "—")
		if r.retired != "" {
			onRecord += " (" + r.retired + ", since retired)"
		}
		fmt.Fprintf(&b, "| `%s` | %s | `%s` `%s` (`%s`) | %s | %s |\n",
			r.name, r.why, r.pkg, r.test, strings.Join(r.flags, " "), onRecord, foundText(r.found))
	}
	return b.Bytes()
}
