package vmp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vmp/internal/live"
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

// TestReadmeNamesEveryFlag fails when a command under cmd/ registers a
// flag that README.md never names (`-name`, `-name value` or
// `-name=value`, in code or inline code): a flag the reader cannot find
// in the README is one only `-h` tells them about. The other way round,
// every README flag-table row (| `-name` |) must name a flag some
// command registers: a deleted flag's row goes with it.
func TestReadmeNamesEveryFlag(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			arg := 0 // flag.String("name", …); flag.StringVar(&v, "name", …)
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if len(call.Args) <= arg {
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			registered[name] = true
			if !regexp.MustCompile("(?m)(^|[\\s`])-" + regexp.QuoteMeta(name) + "([\\s`=]|$)").Match(readme) {
				t.Errorf("%s registers -%s, which README.md never names", path, name)
			}
			return true
		})
	}
	if len(registered) < 20 {
		t.Fatalf("found %d flags under cmd/; the parse no longer sees them", len(registered))
	}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([^`]+)` \\|").FindAllSubmatch(readme, -1) {
		if name := string(m[1]); !registered[name] {
			t.Errorf("README.md has a flag-table row for -%s, which no cmd/*/main.go registers", name)
		}
	}
}

// TestReadmeNamesEveryServedPath fails when live.Server or obs.Mount
// registers an HTTP path README.md never names: an endpoint the reader
// cannot find in the README is one only the source tells them about.
// The other way round, every /v1/ path README.md names must be one they
// register, and the daemon's handler must serve it (answer anything but
// 404): a retired endpoint's instructions go with it.
func TestReadmeNamesEveryServedPath(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// A path README.md names is a whole run of path characters, after
	// a host:port or on its own: /v1/metrics names /v1/metrics, not
	// /metrics.
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`[\w.:-]*(/[\w/-]+)`).FindAllSubmatch(readme, -1) {
		named[string(m[1])] = true
	}
	registered := map[string]bool{}
	for _, path := range []string{"internal/live/server.go", "internal/obs/trace.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			route, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			registered[route] = true
			if !named[route] {
				t.Errorf("%s registers %s, which README.md never names", path, route)
			}
			return true
		})
	}
	if len(registered) < 10 {
		t.Fatalf("found %d registered paths; the parse no longer sees them", len(registered))
	}
	e := live.NewEngine(live.Config{})
	defer e.Close()
	h := live.NewServer(e).Handler()
	for route := range named {
		if !strings.HasPrefix(route, "/v1/") {
			continue
		}
		if !registered[route] {
			t.Errorf("README.md names %s, which neither live.Server nor obs.Mount registers", route)
			continue
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route, nil))
		if rec.Result().StatusCode == http.StatusNotFound {
			t.Errorf("README.md names %s, which the daemon's handler answers 404", route)
		}
	}
}
