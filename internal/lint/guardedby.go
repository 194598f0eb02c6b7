package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GuardedBy enforces declared lock discipline: a struct field annotated
//
//	//diversify:guardedby <mutex-field>
//
// may only be accessed under a lexically dominating Lock/RLock on the
// named sibling mutex — the most recent mutex operation on the same
// receiver before the access, in an enclosing function body, must be a
// Lock (or RLock for reads; a write under RLock is its own finding).
// Construction is exempt: accesses through a variable freshly built
// from a composite literal or new() in the same function cannot race.
// Audited exceptions (single-goroutine phases, callers documented to
// hold the lock) use //diversify:allow-unguarded with a reason.
//
// The check is lexical, not path-sensitive: it certifies the
// straight-line locking idioms this repo actually uses (lock/defer
// unlock, lock…unlock windows, early-return guards) and flags anything
// cleverer for a human audit — which is the point.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc: "fields annotated //diversify:guardedby must be accessed under " +
		"Lock/RLock of the named sibling mutex",
	Directive: "allow-unguarded",
	Run:       runGuardedBy,
}

func runGuardedBy(pass *Pass) {
	if pass.marks == nil || len(pass.marks.guarded) == 0 {
		return
	}
	// Validate annotations: the named mutex must be a sibling field of
	// sync.Mutex / sync.RWMutex type.
	for obj, m := range pass.marks.guarded {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			continue
		}
		st := owningStruct(pass, v)
		mu := structField(st, m.arg)
		if mu == nil {
			pass.Reportf(obj.Pos(), "//diversify:guardedby names mutex field %q, which is not a sibling field of %s", m.arg, obj.Name())
			continue
		}
		if !isMutexType(mu.Type()) {
			pass.Reportf(obj.Pos(), "//diversify:guardedby names %q, which is a %s, not a sync.Mutex or sync.RWMutex", m.arg, mu.Type().String())
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.ObjectOf(sel.Sel)
			m, annotated := pass.marks.guarded[obj]
			if !annotated {
				return true
			}
			checkGuardedAccess(pass, f, sel, m.arg)
			return true
		})
	}
}

// checkGuardedAccess verifies one access to an annotated field.
func checkGuardedAccess(pass *Pass, file *ast.File, sel *ast.SelectorExpr, mutexName string) {
	root, path, ok := refPath(pass.Info, sel.X)
	if !ok {
		// Dynamic receiver (call result, index): cannot track the lock —
		// demand a binding, same policy as nilguard.
		pass.Reportf(sel.Pos(), "cannot verify lock discipline for dynamic receiver %s: bind it to a variable first", types.ExprString(sel.X))
		return
	}
	fn := enclosingFuncDecl(file, sel.Pos())
	if fn == nil {
		return // package-level expression; nothing to check
	}
	// Construction exemption: a receiver freshly created in this
	// function (composite literal or new) is not yet shared.
	if freshlyConstructed(pass.Info, fn, root) {
		return
	}
	write := isWriteAccess(file, sel)
	state := lastMutexOp(pass, fn, sel.Pos(), root, path, mutexName)
	switch {
	case state == opNone:
		pass.Reportf(sel.Pos(), "access to %s.%s is not under %s.%s.Lock(): field is //diversify:guardedby %s", path, sel.Sel.Name, path, mutexName, mutexName)
	case state == opUnlocked:
		pass.Reportf(sel.Pos(), "access to %s.%s after %s.%s was unlocked: re-acquire the lock or move the access", path, sel.Sel.Name, path, mutexName)
	case state == opRLocked && write:
		pass.Reportf(sel.Pos(), "write to %s.%s under RLock of %s.%s: writers need the exclusive Lock", path, sel.Sel.Name, path, mutexName)
	}
}

type mutexOpState int

const (
	opNone mutexOpState = iota
	opLocked
	opRLocked
	opUnlocked
)

// lastMutexOp finds the most recent (lexically preceding, lexically
// visible) Lock/RLock/Unlock/RUnlock call on <root path>.<mutexName>
// before pos. Deferred unlocks do not count — they run at return, after
// every access. Operations inside function literals that do not enclose
// pos are invisible (a sibling closure's Lock proves nothing here).
func lastMutexOp(pass *Pass, fn *ast.FuncDecl, pos token.Pos, root types.Object, path string, mutexName string) mutexOpState {
	state := opNone
	var best token.Pos
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Only descend into literals that enclose the access.
			if !(n.Pos() <= pos && pos < n.End()) {
				return false
			}
		case *ast.DeferStmt:
			// Deferred unlocks run at return, after every access — but if
			// the access itself sits inside the deferred closure, the ops
			// in that closure are exactly what guards it.
			if !(n.Pos() <= pos && pos < n.End()) {
				return false
			}
		case *ast.CallExpr:
			if n.Pos() >= pos {
				return true
			}
			op, ok := mutexOpOf(pass, n, root, path, mutexName)
			if ok && n.Pos() > best {
				best = n.Pos()
				state = op
			}
		}
		return true
	}
	ast.Inspect(fn.Body, visit)
	return state
}

// mutexOpOf classifies call as a mutex operation on the guarded
// receiver's named mutex.
func mutexOpOf(pass *Pass, call *ast.CallExpr, root types.Object, path string, mutexName string) (mutexOpState, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, false
	}
	var op mutexOpState
	switch sel.Sel.Name {
	case "Lock":
		op = opLocked
	case "RLock":
		op = opRLocked
	case "Unlock", "RUnlock":
		op = opUnlocked
	default:
		return opNone, false
	}
	// The receiver must be <root path>.<mutexName>.
	if !sameRef(pass.Info, sel.X, root, path+"."+mutexName) {
		return opNone, false
	}
	return op, true
}

// isWriteAccess reports whether sel is the target of an assignment,
// inc/dec, or the base of an index/field being assigned — the accesses
// that need the exclusive lock.
func isWriteAccess(file *ast.File, sel *ast.SelectorExpr) bool {
	write := false
	ast.Inspect(file, func(n ast.Node) bool {
		if write {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if exprContains(lhs, sel) {
					write = true
					return false
				}
			}
		case *ast.IncDecStmt:
			if exprContains(n.X, sel) {
				write = true
				return false
			}
		}
		return true
	})
	return write
}

// exprContains reports whether needle appears in the lvalue spine of e:
// e itself, or the base of index/selector/star expressions.
func exprContains(e ast.Expr, needle ast.Expr) bool {
	for {
		if e == needle {
			return true
		}
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// enclosingFuncDecl returns the function declaration whose body spans
// pos, nil for package-level positions.
func enclosingFuncDecl(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil &&
			fd.Body.Pos() <= pos && pos < fd.Body.End() {
			return fd
		}
	}
	return nil
}

// freshlyConstructed reports whether root is a local variable defined
// in fn from a composite literal or new() — the construction phase,
// before the value can be shared across goroutines.
func freshlyConstructed(info *types.Info, fn *ast.FuncDecl, root types.Object) bool {
	v, ok := root.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if v.Pos() < fn.Pos() || v.Pos() >= fn.End() {
		return false
	}
	fresh := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || asg.Tok != token.DEFINE || fresh {
			return !fresh
		}
		for i, lhs := range asg.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || info.ObjectOf(id) != root {
				continue
			}
			rhs := asg.Rhs[0]
			if len(asg.Rhs) == len(asg.Lhs) {
				rhs = asg.Rhs[i]
			}
			if isFreshExpr(info, rhs) {
				fresh = true
			}
		}
		return !fresh
	})
	return fresh
}

// isFreshExpr reports whether e evaluates to freshly allocated memory:
// T{...}, &T{...} or new(T).
func isFreshExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			return info.ObjectOf(id) == types.Universe.Lookup("new")
		}
	}
	return false
}

// owningStruct returns the struct type containing field v, nil if it
// cannot be resolved.
func owningStruct(pass *Pass, v *types.Var) *types.Struct {
	// The field's parent struct is not directly linked from the object;
	// scan the package's named types for a struct containing it.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return st
			}
		}
	}
	return nil
}

// structField returns the named field of st, nil when absent.
func structField(st *types.Struct, name string) *types.Var {
	if st == nil {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isMutexType(t types.Type) bool {
	return namedFrom(t, "sync", "Mutex") || namedFrom(t, "sync", "RWMutex")
}
