package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags accumulation loops whose result depends on Go's
// randomized map iteration order — the exact bug class that silently
// breaks byte-identical figure rendering. Inside a `range` over a map
// it reports:
//
//   - appends to a slice declared outside the loop, unless the slice
//     is later canonically sorted (sort.Strings/Ints/Float64s or
//     slices.Sort — total orders the analyzer can prove; a
//     sort.Slice comparator cannot be proven total, so it does not
//     count);
//   - floating-point accumulation (+=, -=, *=, /=, ++, --): float
//     addition is not associative, so map-ordered sums drift in the
//     last ulp from run to run;
//   - writes through the result of a call (the callee observes keys
//     in random order, e.g. a row() that interns keys as it goes);
//   - output written via the fmt print family.
//
// Writing `m[k] = ...` where k is the range key is a per-key
// transform and always allowed. The fix is to iterate sorted keys at
// the accumulation site so the invariant is local, not delegated to
// downstream sorting.
var MapOrder = &Analyzer{
	Name:  "maporder",
	Doc:   "forbid order-dependent accumulation inside range-over-map loops",
	Run:   runMapOrder,
	Tests: true,
}

// totalOrderSorts are the sort entry points guaranteed to produce one
// canonical permutation regardless of input order.
var totalOrderSorts = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Float64s": true},
	"slices": {"Sort": true},
}

// comparatorSorts take a caller-supplied less function, which the
// analyzer cannot prove total.
var comparatorSorts = map[string]map[string]bool{
	"sort":   {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"SortFunc": true, "SortStableFunc": true},
}

func runMapOrder(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var ranges []*ast.RangeStmt
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if rs, ok := n.(*ast.RangeStmt); ok && p.isMapRange(rs) {
					ranges = append(ranges, rs)
				}
				return true
			})
			for _, rs := range ranges {
				p.checkMapRange(fd.Body, rs)
			}
		}
	}
}

func (p *Pass) isMapRange(rs *ast.RangeStmt) bool {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// appendSite is one `x = append(x, ...)` inside a map range, pending
// the search for a canonical sort downstream.
type appendSite struct {
	target string // canonical expression string of the appended slice
	pos    token.Pos
}

func (p *Pass) checkMapRange(funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	keyObj := p.rangeKeyObject(rs)
	var appends []appendSite

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		// Nested map ranges get their own independent check.
		if inner, ok := n.(*ast.RangeStmt); ok && inner != rs && p.isMapRange(inner) {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			p.checkMapRangeAssign(rs, st, keyObj, &appends)
		case *ast.IncDecStmt:
			if p.isFloat(st.X) && !p.isPerKeyWrite(st.X, keyObj) {
				p.Reportf(st.Pos(),
					"floating-point accumulation in map iteration order drifts run to run; iterate sorted keys")
			}
		case *ast.CallExpr:
			if name, ok := p.pkgFunc(st, "fmt"); ok &&
				(hasPrefix(name, "Print") || hasPrefix(name, "Fprint")) {
				p.Reportf(st.Pos(),
					"output written in map iteration order; iterate sorted keys")
			}
		}
		return true
	})

	for _, site := range appends {
		p.checkAppendSorted(funcBody, rs, site)
	}
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// rangeKeyObject returns the object bound to the range key, or nil.
func (p *Pass) rangeKeyObject(rs *ast.RangeStmt) types.Object {
	id, ok := rs.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return p.objectOf(id)
}

func (p *Pass) checkMapRangeAssign(rs *ast.RangeStmt, st *ast.AssignStmt, keyObj types.Object, appends *[]appendSite) {
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, lhs := range st.Lhs {
			if i < len(st.Rhs) && len(st.Lhs) == len(st.Rhs) {
				if target, ok := p.selfAppend(lhs, st.Rhs[i]); ok {
					if p.declaredOutside(lhs, rs) {
						*appends = append(*appends, appendSite{target: target, pos: st.Pos()})
					}
					continue
				}
			}
			if st.Tok == token.DEFINE {
				continue
			}
			if p.isPerKeyWrite(lhs, keyObj) {
				continue
			}
			if root := rootExpr(lhs); root != nil {
				if _, isCall := root.(*ast.CallExpr); isCall {
					p.Reportf(st.Pos(),
						"write through a call result inside map iteration; the callee observes keys in random order — iterate sorted keys")
				}
			}
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range st.Lhs {
			if p.isFloat(lhs) && !p.isPerKeyWrite(lhs, keyObj) {
				p.Reportf(st.Pos(),
					"floating-point accumulation in map iteration order drifts run to run; iterate sorted keys")
			}
		}
	}
}

// selfAppend recognizes `x = append(x, ...)` (by canonical expression
// string, so selector targets like h.Counts work) and returns the
// target's string form.
func (p *Pass) selfAppend(lhs ast.Expr, rhs ast.Expr) (string, bool) {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return "", false
	}
	if b, ok := p.objectOf(fn).(*types.Builtin); !ok || b.Name() != "append" {
		return "", false
	}
	target := types.ExprString(lhs)
	if types.ExprString(call.Args[0]) != target {
		return "", false
	}
	return target, true
}

// declaredOutside reports whether the written variable was declared
// before the range statement (an accumulator), as opposed to a
// per-iteration local.
func (p *Pass) declaredOutside(lhs ast.Expr, rs *ast.RangeStmt) bool {
	root := rootExpr(lhs)
	id, ok := root.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.objectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos()
}

// isPerKeyWrite reports whether lhs is `m[k]...` for the range key k —
// a per-key map transform that visits each entry exactly once, safe in
// any order.
func (p *Pass) isPerKeyWrite(lhs ast.Expr, keyObj types.Object) bool {
	if keyObj == nil {
		return false
	}
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	if t := p.Info.TypeOf(idx.X); t == nil {
		return false
	} else if _, isMap := t.Underlying().(*types.Map); !isMap {
		return false
	}
	id, ok := idx.Index.(*ast.Ident)
	return ok && p.objectOf(id) == keyObj
}

func (p *Pass) isFloat(e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootExpr peels index, selector, star, and paren layers off an
// lvalue, returning the base expression.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return e
		}
	}
}

// pkgFunc returns the function name if call is pkgPath.Name(...).
func (p *Pass) pkgFunc(call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn := p.pkgNameOf(id)
	if pn == nil || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// checkAppendSorted looks for a canonical sort of the appended slice
// after the loop and reports if none (or only a comparator sort) is
// found.
func (p *Pass) checkAppendSorted(funcBody *ast.BlockStmt, rs *ast.RangeStmt, site appendSite) {
	foundTotal, foundComparator := false, false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() || len(call.Args) == 0 {
			return true
		}
		if types.ExprString(call.Args[0]) != site.target {
			return true
		}
		for _, pkg := range []string{"sort", "slices"} {
			if name, ok := p.pkgFunc(call, pkg); ok {
				foundTotal = foundTotal || totalOrderSorts[pkg][name]
				foundComparator = foundComparator || comparatorSorts[pkg][name]
			}
		}
		return true
	})
	switch {
	case foundTotal:
	case foundComparator:
		p.Reportf(site.pos,
			"slice appended in map iteration order is only comparator-sorted afterwards, which cannot be proven total; iterate sorted keys at the accumulation site")
	default:
		p.Reportf(site.pos,
			"slice appended in map iteration order and never canonically sorted; iterate sorted keys")
	}
}
