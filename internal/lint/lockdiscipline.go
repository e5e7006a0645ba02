package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDiscipline checks the two lock-hygiene rules every mutex-holding
// type depends on (live.Engine, wal.Log, the Dataset's derived-value
// table). For each struct type in the package holding a sync.Mutex or sync.RWMutex
// field, it flags:
//
//   - a method that, while holding the lock, calls another method of
//     the same receiver that itself acquires the same receiver's lock
//     (self-deadlock with a Mutex or a write-locked RWMutex; a lost
//     reader-writer fairness guarantee otherwise);
//   - a method that returns an internal slice- or map-typed field
//     while holding the lock via a deferred unlock — the caller
//     receives an aliased view of guarded state, so the method must
//     copy before returning.
//
// The scan is linear over each method body (events in source order;
// a deferred unlock keeps the lock held to the end) and does not
// descend into function literals, whose execution time is unknown.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "forbid nested same-receiver locking and leaking guarded slices",
	Run:  runLockDiscipline,
}

// lockEvent is one lock-relevant action in a method body, in source
// order.
type lockEvent struct {
	pos  token.Pos
	kind int // evAcquire, evRelease, evCall, evReturnField
	name string
	expr ast.Expr
}

const (
	evAcquire = iota
	evRelease
	evDeferRelease
	evCall
	evReturnField
)

func runLockDiscipline(p *Pass) {
	mutexTypes := p.mutexHolders()
	if len(mutexTypes) == 0 {
		return
	}
	methods := p.collectMethods(mutexTypes)
	// lockers: methods that acquire their receiver's lock anywhere.
	lockers := make(map[*types.Named]map[string]bool)
	for named, byName := range methods {
		set := make(map[string]bool)
		for name, m := range byName {
			for _, ev := range m.events {
				if ev.kind == evAcquire {
					set[name] = true
					break
				}
			}
		}
		lockers[named] = set
	}
	for named, byName := range methods {
		for name, m := range byName {
			p.checkMethodLocking(named, name, m, lockers[named])
		}
	}
}

// mutexHolders finds named struct types in the package with a
// sync.Mutex or sync.RWMutex field, mapping them to those field
// names.
func (p *Pass) mutexHolders() map[*types.Named]map[string]bool {
	out := make(map[*types.Named]map[string]bool)
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isSyncMutex(f.Type()) {
				if out[named] == nil {
					out[named] = make(map[string]bool)
				}
				out[named][f.Name()] = true
			}
		}
	}
	return out
}

func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// methodLock is one method body reduced to its lock-relevant events.
type methodLock struct {
	decl   *ast.FuncDecl
	events []lockEvent
}

func (p *Pass) collectMethods(mutexTypes map[*types.Named]map[string]bool) map[*types.Named]map[string]*methodLock {
	out := make(map[*types.Named]map[string]*methodLock)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) != 1 {
				continue
			}
			named := p.receiverNamed(fd)
			if named == nil {
				continue
			}
			fields, ok := mutexTypes[named]
			if !ok {
				continue
			}
			recvObj := p.receiverObject(fd)
			if recvObj == nil {
				continue
			}
			if out[named] == nil {
				out[named] = make(map[string]*methodLock)
			}
			out[named][fd.Name.Name] = &methodLock{
				decl:   fd,
				events: p.lockEvents(fd.Body, recvObj, fields),
			}
		}
	}
	return out
}

// receiverNamed resolves the receiver's named type (through one
// pointer).
func (p *Pass) receiverNamed(fd *ast.FuncDecl) *types.Named {
	t := p.Info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func (p *Pass) receiverObject(fd *ast.FuncDecl) types.Object {
	names := fd.Recv.List[0].Names
	if len(names) != 1 || names[0].Name == "_" {
		return nil
	}
	return p.objectOf(names[0])
}

// lockEvents reduces a method body to its source-ordered lock events.
// Function literals are skipped: when they run is unknown.
func (p *Pass) lockEvents(body *ast.BlockStmt, recvObj types.Object, mutexFields map[string]bool) []lockEvent {
	var events []lockEvent
	deferredCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferredCalls[d.Call] = true
		}
		return true
	})

	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && p.objectOf(id) == recvObj
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				target := res
				if sl, ok := target.(*ast.SliceExpr); ok {
					target = sl.X
				}
				sel, ok := target.(*ast.SelectorExpr)
				if !ok || !isRecv(sel.X) {
					continue
				}
				if t := p.Info.TypeOf(sel); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice, *types.Map:
						events = append(events, lockEvent{pos: res.Pos(), kind: evReturnField, name: sel.Sel.Name, expr: res})
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// recv.mu.Lock() / recv.mu.Unlock() and friends.
			if inner, ok := sel.X.(*ast.SelectorExpr); ok &&
				isRecv(inner.X) && mutexFields[inner.Sel.Name] {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if !deferredCalls[v] {
						events = append(events, lockEvent{pos: v.Pos(), kind: evAcquire, name: inner.Sel.Name})
					}
				case "Unlock", "RUnlock":
					kind := evRelease
					if deferredCalls[v] {
						kind = evDeferRelease
					}
					events = append(events, lockEvent{pos: v.Pos(), kind: kind, name: inner.Sel.Name})
				}
			}
			// recv.Method(...): same-receiver method call.
			if isRecv(sel.X) {
				events = append(events, lockEvent{pos: v.Pos(), kind: evCall, name: sel.Sel.Name})
			}
		}
		return true
	})
	return events
}

// checkMethodLocking runs the linear held/not-held scan over one
// method's events.
func (p *Pass) checkMethodLocking(named *types.Named, name string, m *methodLock, lockers map[string]bool) {
	held := false
	for _, ev := range m.events {
		switch ev.kind {
		case evAcquire:
			held = true
		case evRelease:
			held = false
		case evDeferRelease:
			// Lock stays held until the method returns.
		case evCall:
			if held && lockers[ev.name] && ev.name != name {
				p.Reportf(ev.pos,
					"%s.%s calls %s while holding the receiver's lock; %s acquires the same lock (deadlock risk) — call it before locking or split out an unlocked variant",
					named.Obj().Name(), name, ev.name, ev.name)
			}
		case evReturnField:
			if held {
				p.Reportf(ev.pos,
					"%s.%s returns internal field %s while holding the lock; the caller gets an aliased view of guarded state — copy before returning",
					named.Obj().Name(), name, ev.name)
			}
		}
	}
}
