package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FsyncDiscipline machine-checks the atomic-replace protocol the WAL
// checkpoint introduced (DESIGN §11): a file written via a temp path
// and renamed into place must be fsynced before the rename —
// os.WriteFile followed by os.Rename is flagged (WriteFile never
// syncs), and an os.Create/os.OpenFile handle must see a Sync call
// before its path is renamed — and the rename must be followed by a
// directory fsync (a Sync on an *os.File opened after the rename, or a
// call to a same-package function whose body makes one), or the
// rename itself can vanish in a crash.
//
// The check is per function body, source order, function literals
// analyzed as their own bodies — the temp-write/rename pairs this
// analyzer exists for live inside one function (wal.writeFileDurable),
// and a cross-function pairing would be guesswork.
var FsyncDiscipline = &Analyzer{
	Name:  "fsyncdiscipline",
	Doc:   "require fsync before rename, and a directory fsync after",
	Run:   runFsyncDiscipline,
	Tests: true,
}

func runFsyncDiscipline(p *Pass) {
	if !strings.HasPrefix(p.Path, "vmp/internal/") && !strings.HasPrefix(p.Path, "vmp/cmd/") {
		return
	}
	// The package's function declarations, for the directory-fsync
	// helper a body calls after its rename (wal.syncDir).
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[p.Info.Defs[fd.Name]] = fd
			}
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkFsyncBody(fd.Body, decls)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					p.checkFsyncBody(lit.Body, decls)
				}
				return true
			})
		}
	}
}

// fsyncWrite records how a path came to hold unflushed data: an
// os.WriteFile (handle == nil, unsyncable by construction) or a
// write handle opened on it.
type fsyncWrite struct {
	pos    token.Pos
	handle types.Object // the *os.File variable, nil for os.WriteFile
}

// checkFsyncBody checks one body, shallowly — nested function
// literals are separate bodies with their own orderings.
func (p *Pass) checkFsyncBody(body *ast.BlockStmt, decls map[types.Object]*ast.FuncDecl) {
	written := make(map[types.Object]*fsyncWrite) // path root -> pending write
	syncs := make(map[types.Object][]token.Pos)   // handle -> Sync positions
	var allSyncs []token.Pos                      // every *os.File Sync, any handle
	type renameAt struct {
		pos token.Pos
		src types.Object
	}
	var renames []renameAt
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			if v.Body == body {
				return true // the body under analysis itself
			}
			return false
		case *ast.AssignStmt:
			// f, err := os.Create(path) / os.OpenFile(path, ...): bind
			// the handle to the path it writes.
			if len(v.Rhs) != 1 || len(v.Lhs) == 0 {
				return true
			}
			call, ok := v.Rhs[0].(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			name, ok := p.pkgFunc(call, "os")
			if !ok || (name != "Create" && name != "OpenFile") {
				return true
			}
			handleID, ok := v.Lhs[0].(*ast.Ident)
			if !ok || handleID.Name == "_" {
				return true
			}
			handle := p.objectOf(handleID)
			if pathRoot := p.rootIdentObject(call.Args[0]); pathRoot != nil && handle != nil {
				written[pathRoot] = &fsyncWrite{pos: call.Pos(), handle: handle}
			}
		case *ast.CallExpr:
			if name, ok := p.pkgFunc(v, "os"); ok {
				switch name {
				case "WriteFile":
					if len(v.Args) > 0 {
						if pathRoot := p.rootIdentObject(v.Args[0]); pathRoot != nil {
							written[pathRoot] = &fsyncWrite{pos: v.Pos()}
						}
					}
				case "Rename":
					if len(v.Args) > 0 {
						if pathRoot := p.rootIdentObject(v.Args[0]); pathRoot != nil {
							renames = append(renames, renameAt{pos: v.Pos(), src: pathRoot})
						}
					}
				}
				return true
			}
			if file := p.osFileSynced(v); file != nil {
				allSyncs = append(allSyncs, v.Pos())
				if obj := p.rootIdentObject(file); obj != nil {
					syncs[obj] = append(syncs[obj], v.Pos())
				}
				return true
			}
			if fd := decls[p.calleeObject(v)]; fd != nil && p.syncsOSFile(fd.Body) {
				// A helper that opens a directory and syncs it
				// (wal.syncDir): no handle here to pair with a write.
				allSyncs = append(allSyncs, v.Pos())
			}
		}
		return true
	})
	for _, r := range renames {
		w := written[r.src]
		if w == nil || w.pos > r.pos {
			continue // not a path this body wrote beforehand
		}
		if w.handle == nil {
			p.Reportf(r.pos,
				"file written with os.WriteFile is renamed into place without an fsync; open the temp file, write, Sync, Close, then os.Rename (DESIGN §11 atomic-replace protocol)")
			continue
		}
		syncedBefore := false
		for _, sp := range syncs[w.handle] {
			if sp > w.pos && sp < r.pos {
				syncedBefore = true
				break
			}
		}
		if !syncedBefore {
			p.Reportf(r.pos,
				"temp file is renamed into place before its handle is fsynced; call Sync on the file before os.Rename (DESIGN §11 atomic-replace protocol)")
			continue
		}
		// The content made it down; the rename itself needs a directory
		// fsync after it (any *os.File Sync past the rename — the
		// protocol opens the directory and syncs that handle).
		dirSynced := false
		for _, sp := range allSyncs {
			if sp > r.pos {
				dirSynced = true
				break
			}
		}
		if !dirSynced {
			p.Reportf(r.pos,
				"rename into place is not followed by a directory fsync; open the directory and Sync it so the rename itself survives a crash (DESIGN §11 atomic-replace protocol)")
		}
	}
}

// osFileSynced returns the receiver of call when call is Sync() on an
// *os.File, nil otherwise.
func (p *Pass) osFileSynced(call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sync" || len(call.Args) != 0 {
		return nil
	}
	if t := p.Info.TypeOf(sel.X); t == nil || !isOSFile(t) {
		return nil
	}
	return sel.X
}

// syncsOSFile reports whether body itself calls Sync on an *os.File.
func (p *Pass) syncsOSFile(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && p.osFileSynced(call) != nil {
			found = true
		}
		return !found
	})
	return found
}

// calleeObject resolves the called function or method, or nil for
// indirect calls and conversions.
func (p *Pass) calleeObject(call *ast.CallExpr) types.Object {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return p.objectOf(fn)
	case *ast.SelectorExpr:
		return p.objectOf(fn.Sel)
	}
	return nil
}

// rootIdentObject unwraps parentheses and string concatenation
// (path + ".tmp") to the leftmost identifier's object — the variable a
// path or handle expression is rooted in.
func (p *Pass) rootIdentObject(e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.BinaryExpr:
			if v.Op != token.ADD {
				return nil
			}
			e = v.X
		case *ast.Ident:
			return p.objectOf(v)
		default:
			return nil
		}
	}
}

// isOSFile reports whether t is *os.File (or os.File).
func isOSFile(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File"
}
