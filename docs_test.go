package vmp_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyMakeTargetsThatExist fails when README.md, DESIGN.md
// or EXPERIMENTS.md tells the reader to run a `make <target>` that the
// Makefile does not define: a retired target's instructions go with it.
func TestDocsNameOnlyMakeTargetsThatExist(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`).FindAllSubmatch(makefile, -1) {
		defined[string(m[1])] = true
	}
	named := regexp.MustCompile("`make\\s+([A-Za-z0-9_-]+)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllSubmatchIndex(text, -1) {
			if target := string(text[m[2]:m[3]]); !defined[target] {
				line := 1 + strings.Count(string(text[:m[0]]), "\n")
				t.Errorf("%s:%d names `make %s`, which the Makefile does not define", doc, line, target)
			}
		}
	}
}
