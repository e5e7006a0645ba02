package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HTTPDiscipline checks the response-ordering and resource contracts
// every handler in the serving plane must keep:
//
//  1. WriteHeader (or http.Error) runs at most once per path — the
//     second call is a no-op that logs "superfluous response.WriteHeader"
//     and, worse, hides which status the client actually saw.
//
//  2. Headers (Content-Type, Retry-After) are set, and the status
//     written, before the first body write. The first body write
//     flushes the headers; mutations after it silently do nothing.
//     The canonical bug is encode-then-error:
//
//     if err := json.NewEncoder(w).Encode(v); err != nil {
//     http.Error(w, "encode error", 500)   // body already sent
//     }
//
//     Marshal to memory first, then set headers and write.
//
//  3. Objects taken from a sync.Pool are returned on every path: each
//     return after pool.Get must be covered by a deferred Put or a
//     plain Put earlier on the path, so an error return cannot leak a
//     pooled decoder or gzip reader under sustained error load.
//
// Path analysis is deliberately sequential-per-branch: a branch's
// effects are explored (and reported) inside the branch but are not
// merged into the state after it, so early-return guards stay clean
// and every report corresponds to a real straight-line path.
var HTTPDiscipline = &Analyzer{
	Name:  "httpdiscipline",
	Doc:   "enforce WriteHeader-once, headers-before-body, and pooled-object return on all handler paths",
	Run:   runHTTPDiscipline,
	Tests: true,
}

func runHTTPDiscipline(p *Pass) {
	if !strings.HasPrefix(p.Path, "vmp/internal/") && !strings.HasPrefix(p.Path, "vmp/cmd/") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				if v.Body == nil {
					return true
				}
				if w := p.responseWriterParam(v.Type); w != nil {
					p.checkHandler(v.Body, w)
				}
				p.checkPoolDiscipline(v.Body)
			case *ast.FuncLit:
				if w := p.responseWriterParam(v.Type); w != nil {
					p.checkHandler(v.Body, w)
				}
				p.checkPoolDiscipline(v.Body)
			}
			return true
		})
	}
}

// responseWriterParam returns the http.ResponseWriter parameter's
// object, or nil when the signature has none (or it is blank).
func (p *Pass) responseWriterParam(ft *ast.FuncType) types.Object {
	if ft.Params == nil {
		return nil
	}
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			if name.Name == "_" {
				continue
			}
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			tn := named.Obj()
			if tn.Pkg() != nil && tn.Pkg().Path() == "net/http" && tn.Name() == "ResponseWriter" {
				return obj
			}
		}
	}
	return nil
}

// hstate is the per-path response state: the positions of the first
// status write and the first body write (NoPos = not yet).
type hstate struct {
	status token.Pos
	body   token.Pos
}

// handlerCheck walks one handler body.
type handlerCheck struct {
	p       *Pass
	writer  types.Object
	derived map[types.Object]bool // locals holding writer-derived values (json.NewEncoder(w))
}

func (p *Pass) checkHandler(body *ast.BlockStmt, writer types.Object) {
	h := &handlerCheck{p: p, writer: writer, derived: make(map[types.Object]bool)}
	// One-level derivation pass: a local defined from an expression
	// that mentions the writer (enc := json.NewEncoder(w)) writes the
	// body when used.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if h.mentionsWriter(as.Rhs[i]) {
				if obj := p.objectOf(id); obj != nil {
					h.derived[obj] = true
				}
			}
		}
		return true
	})
	h.walkStmts(body.List, hstate{})
}

// mentionsWriter reports whether the expression references the writer
// or a writer-derived local, ignoring nested function literals.
func (h *handlerCheck) mentionsWriter(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			obj := h.p.objectOf(id)
			if obj != nil && (obj == h.writer || h.derived[obj]) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// walkStmts threads state through a statement list; a return or branch
// statement terminates the path.
func (h *handlerCheck) walkStmts(list []ast.Stmt, st hstate) (hstate, bool) {
	for _, s := range list {
		var terminal bool
		st, terminal = h.walkStmt(s, st)
		if terminal {
			return st, true
		}
	}
	return st, false
}

// walkStmt applies one statement to the path state. Branch bodies are
// explored with a copy of the state — findings inside them are real —
// but their effects are not merged back: only straight-line effects
// (including if-statement inits and conditions) propagate, which keeps
// every report a true sequential ordering violation.
func (h *handlerCheck) walkStmt(s ast.Stmt, st hstate) (hstate, bool) {
	switch v := s.(type) {
	case *ast.ExprStmt:
		return h.apply(v.X, st), false
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			st = h.apply(rhs, st)
		}
		return st, false
	case *ast.DeclStmt:
		return h.apply(v, st), false
	case *ast.ReturnStmt:
		for _, res := range v.Results {
			st = h.apply(res, st)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.IfStmt:
		if v.Init != nil {
			st, _ = h.walkStmt(v.Init, st)
		}
		st = h.apply(v.Cond, st)
		h.walkStmts(v.Body.List, st)
		if v.Else != nil {
			h.walkStmt(v.Else, st)
		}
		return st, false
	case *ast.BlockStmt:
		return h.walkStmts(v.List, st)
	case *ast.SwitchStmt:
		if v.Init != nil {
			st, _ = h.walkStmt(v.Init, st)
		}
		if v.Tag != nil {
			st = h.apply(v.Tag, st)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h.walkStmts(cc.Body, st)
			}
		}
		return st, false
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			st, _ = h.walkStmt(v.Init, st)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				h.walkStmts(cc.Body, st)
			}
		}
		return st, false
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				h.walkStmts(cc.Body, st)
			}
		}
		return st, false
	case *ast.ForStmt:
		h.walkStmts(v.Body.List, st)
		return st, false
	case *ast.RangeStmt:
		st = h.apply(v.X, st)
		h.walkStmts(v.Body.List, st)
		return st, false
	case *ast.LabeledStmt:
		return h.walkStmt(v.Stmt, st)
	case *ast.DeferStmt, *ast.GoStmt:
		return st, false
	}
	return st, false
}

// writerOpKind classifies one writer-touching call.
type writerOpKind int

const (
	opNone   writerOpKind = iota
	opHeader              // w.Header().Set/Add/Del
	opStatus              // w.WriteHeader
	opError               // http.Error / NotFound / Redirect / ServeFile / ServeContent: status + body
	opBody                // anything else the writer flows into
)

type writerOp struct {
	pos  token.Pos
	kind writerOpKind
	name string
}

// apply collects the writer operations under node in source order and
// threads them through the path state, reporting violations.
func (h *handlerCheck) apply(node ast.Node, st hstate) hstate {
	var ops []writerOp
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's body is its own handler path
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, name := h.classify(call); kind != opNone {
			ops = append(ops, writerOp{pos: call.Pos(), kind: kind, name: name})
		}
		return true
	})
	// ast.Inspect is already in source order; positions only tie-break
	// nested calls, which classify independently.
	for _, op := range ops {
		switch op.kind {
		case opHeader:
			if st.body.IsValid() {
				h.p.Reportf(op.pos, "%s after the first body write has no effect; set headers before writing the body", op.name)
			} else if st.status.IsValid() {
				h.p.Reportf(op.pos, "%s after WriteHeader has no effect; set headers before writing the status", op.name)
			}
		case opStatus:
			if st.status.IsValid() {
				h.p.Reportf(op.pos, "WriteHeader called more than once on this path (status already written at line %d)", h.line(st.status))
			} else if st.body.IsValid() {
				h.p.Reportf(op.pos, "WriteHeader after the first body write; the status was already sent implicitly at line %d", h.line(st.body))
			}
			if !st.status.IsValid() {
				st.status = op.pos
			}
		case opError:
			if st.body.IsValid() {
				h.p.Reportf(op.pos, "%s after the response body was already written at line %d; marshal to memory first, then set headers and write once", op.name, h.line(st.body))
			} else if st.status.IsValid() {
				h.p.Reportf(op.pos, "%s after the status was already written at line %d on this path", op.name, h.line(st.status))
			}
			if !st.status.IsValid() {
				st.status = op.pos
			}
			if !st.body.IsValid() {
				st.body = op.pos
			}
		case opBody:
			if !st.body.IsValid() {
				st.body = op.pos
			}
		}
	}
	return st
}

func (h *handlerCheck) line(pos token.Pos) int {
	return h.p.Fset.Position(pos).Line
}

// classify decides what one call does to the response.
func (h *handlerCheck) classify(call *ast.CallExpr) (writerOpKind, string) {
	if name, ok := h.p.pkgFunc(call, "net/http"); ok {
		switch name {
		case "Error", "NotFound", "Redirect", "ServeFile", "ServeContent":
			if len(call.Args) > 0 && h.mentionsWriter(call.Args[0]) {
				return opError, "http." + name
			}
		}
		return opNone, ""
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Set", "Add", "Del":
			if h.isHTTPHeader(sel.X) && h.mentionsWriter(sel.X) {
				return opHeader, "header " + sel.Sel.Name
			}
		case "WriteHeader":
			if h.mentionsWriter(sel.X) {
				return opStatus, "WriteHeader"
			}
		case "Header":
			if len(call.Args) == 0 && h.mentionsWriter(sel.X) {
				return opNone, "" // reading the header map writes nothing
			}
		}
	}
	if h.mentionsWriter(call) {
		return opBody, "body write"
	}
	return opNone, ""
}

// isHTTPHeader reports whether the expression has type net/http.Header.
func (h *handlerCheck) isHTTPHeader(e ast.Expr) bool {
	tv, ok := h.p.Info.Types[e]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Pkg() != nil && tn.Pkg().Path() == "net/http" && tn.Name() == "Header"
}

// --- sync.Pool discipline ---

// poolGet is one pool.Get whose result must come back.
type poolGet struct {
	pos  token.Pos
	line int
	pool string // textual path of the pool expression, e.g. "gzPool", "s.decoders"
}

type poolPut struct {
	pos     token.Pos
	pool    string
	inDefer bool
}

// checkPoolDiscipline verifies rule 3 for one function body: every
// return after a sync.Pool Get is preceded by a deferred Put (which
// covers every later return) or a plain Put earlier on the path.
// Nested function literals are separate functions and are skipped,
// except literals invoked directly by a defer, whose Puts count as
// deferred.
func (p *Pass) checkPoolDiscipline(body *ast.BlockStmt) {
	var (
		gets    []poolGet
		puts    []poolPut
		returns []token.Pos
	)
	var deferRanges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferRanges = append(deferRanges, [2]token.Pos{d.Pos(), d.End()})
		}
		return true
	})
	inDefer := func(pos token.Pos) bool {
		for _, r := range deferRanges {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}
	var walk func(blk *ast.BlockStmt, inLit bool)
	walk = func(blk *ast.BlockStmt, inLit bool) {
		ast.Inspect(blk, func(node ast.Node) bool {
			switch v := node.(type) {
			case *ast.FuncLit:
				// Only descend into literals that defer invokes
				// directly; everything else is its own function.
				if inDefer(v.Pos()) {
					walk(v.Body, true)
				}
				return false
			case *ast.ReturnStmt:
				if !inLit {
					returns = append(returns, v.Pos())
				}
			case *ast.CallExpr:
				sel, ok := v.Fun.(*ast.SelectorExpr)
				if !ok || !p.isSyncPool(sel.X) {
					return true
				}
				switch sel.Sel.Name {
				case "Get":
					if len(v.Args) == 0 && !inLit {
						gets = append(gets, poolGet{
							pos:  v.Pos(),
							line: p.Fset.Position(v.Pos()).Line,
							pool: exprPath(sel.X),
						})
					}
				case "Put":
					if len(v.Args) == 1 {
						puts = append(puts, poolPut{pos: v.Pos(), pool: exprPath(sel.X), inDefer: inDefer(v.Pos())})
					}
				}
			}
			return true
		})
	}
	walk(body, false)
	for _, get := range gets {
		if get.pool == "" {
			continue
		}
		covered := false
		for _, put := range puts {
			if put.pool == get.pool {
				covered = true
				break
			}
		}
		if !covered {
			p.Reportf(get.pos,
				"pooled object from %s.Get is never returned to the pool in this function; defer %s.Put right after Get", get.pool, get.pool)
			continue
		}
		for _, ret := range returns {
			if ret <= get.pos {
				continue
			}
			ok := false
			for _, put := range puts {
				// A deferred Put registered before the return covers
				// it; a plain Put must sit between Get and return.
				if put.pool == get.pool && put.pos < ret && (put.inDefer || put.pos > get.pos) {
					ok = true
					break
				}
			}
			if !ok {
				p.Reportf(ret,
					"return leaks the pooled object obtained from %s.Get at line %d; defer %s.Put right after Get so every path returns it", get.pool, get.line, get.pool)
			}
		}
	}
}

// isSyncPool reports whether e has type sync.Pool or *sync.Pool.
func (p *Pass) isSyncPool(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool"
}

// exprPath renders a pool expression as a stable textual path for
// matching Gets to Puts; unrenderable shapes return "".
func exprPath(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if base := exprPath(v.X); base != "" {
			return base + "." + v.Sel.Name
		}
	case *ast.ParenExpr:
		return exprPath(v.X)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return exprPath(v.X)
		}
	}
	return ""
}
