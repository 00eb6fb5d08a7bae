package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicConsistencyAnalyzer enforces the exact-cost contract under
// concurrency: counters shared across goroutines (concurrent sessions over
// one buffer pool, disk and predicate cache) are touched only atomically.
// Two complementary checks:
//
//  1. Mixed access: a variable or struct field that is ever the target of a
//     sync/atomic function call (atomic.AddInt64(&x.f, ...)) must never be
//     read or written plainly anywhere else in the package — one plain access
//     is a data race and silently corrupts charged costs.
//  2. Value copies: a value of a typed atomic (atomic.Int64, atomic.Uint64,
//     atomic.Pointer[T], ...) must not be copied — assigned, passed, indexed
//     out, or returned by value — because the copy severs it from the word
//     the other goroutines update. Taking its address and calling its methods
//     are the only sound uses.
//
// The checks are whole-package and flow-insensitive: atomicity is a property
// of the field, not of any one path.
var AtomicConsistencyAnalyzer = &Analyzer{
	Name: "atomicconsistency",
	Doc:  "fields accessed via sync/atomic must never be accessed plainly or copied",
	Run:  runAtomicConsistency,
}

func runAtomicConsistency(pass *Pass) error {
	// Pass 1: find every variable targeted by an atomic.* call, remembering
	// the operand nodes themselves (they are sanctioned accesses).
	targets := map[*types.Var]token.Pos{}
	sanctioned := map[ast.Node]bool{}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isAtomicFuncCall(pass.Pkg, call) || len(call.Args) == 0 {
				return true
			}
			un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				return true
			}
			operand := ast.Unparen(un.X)
			if v := varOf(pass.Pkg, operand); v != nil {
				if _, seen := targets[v]; !seen {
					targets[v] = call.Pos()
				}
				sanctioned[operand] = true
			}
			return true
		})
	}

	// Pass 2: report plain accesses of atomic targets and value copies of
	// typed atomics.
	type finding struct {
		pos token.Pos
		msg string
	}
	var found []finding
	seen := map[token.Pos]bool{}
	add := func(pos token.Pos, msg string) {
		if !seen[pos] {
			seen[pos] = true
			found = append(found, finding{pos, msg})
		}
	}
	for _, f := range pass.Pkg.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch e := n.(type) {
			case *ast.Ident, *ast.SelectorExpr:
				expr := n.(ast.Expr)
				if sanctioned[expr] || selIdentOfParent(n, stack) {
					return true
				}
				if v := varOf(pass.Pkg, expr); v != nil {
					if atomicAt, ok := targets[v]; ok && !selectorChild(expr, stack) {
						add(expr.Pos(), sprintfDiag(
							"%s is updated with sync/atomic (line %d); this plain access races with those updates — use atomic operations here too",
							v.Name(), pass.Pkg.Fset.Position(atomicAt).Line))
					}
				}
				if isAtomicValueCopy(pass.Pkg, expr, stack) {
					add(expr.Pos(), sprintfDiag(
						"this copies the %s value out of the shared word; atomic values must not be copied — call its methods through the original variable",
						typeLabel(pass.Pkg, expr)))
				}
			case *ast.IndexExpr:
				if isAtomicValueCopy(pass.Pkg, e, stack) {
					add(e.Pos(), sprintfDiag(
						"this copies the %s value out of the shared word; atomic values must not be copied — call its methods through the original element",
						typeLabel(pass.Pkg, e)))
				}
			case *ast.StarExpr:
				if isAtomicValueCopy(pass.Pkg, e, stack) {
					add(e.Pos(), sprintfDiag(
						"this dereference copies the %s value; atomic values must not be copied — call its methods through the pointer",
						typeLabel(pass.Pkg, e)))
				}
			default:
			}
			return true
		})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	for _, fi := range found {
		pass.Reportf(fi.pos, "%s", fi.msg)
	}
	return nil
}

// sprintfDiag exists so messages are formatted once at detection time.
func sprintfDiag(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}

// isAtomicFuncCall reports whether call invokes a function of package
// sync/atomic (atomic.AddInt64 style, not a typed-atomic method).
func isAtomicFuncCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// varOf resolves an identifier or field selector to the *types.Var it uses.
// Definitions (struct field declarations, var declarations) are not uses and
// resolve to nil: declaring a field is not an access of it.
func varOf(pkg *Package, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// selIdentOfParent reports whether n is the Sel identifier of an enclosing
// selector expression; the access is judged once, at the selector itself.
func selIdentOfParent(n ast.Node, stack []ast.Node) bool {
	id, ok := n.(*ast.Ident)
	if !ok || len(stack) == 0 {
		return false
	}
	parent, ok := stack[len(stack)-1].(*ast.SelectorExpr)
	return ok && parent.Sel == id
}

// selectorChild reports whether e is the X of an enclosing selector (x.f.g:
// the access to x.f is part of the deeper access, judged at the leaf).
func selectorChild(e ast.Expr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent, ok := stack[len(stack)-1].(*ast.SelectorExpr)
	return ok && parent.X == e
}

// isAtomicValueCopy reports whether e is a typed-atomic value being used as
// a value (copied) rather than addressed or used as a method receiver.
func isAtomicValueCopy(pkg *Package, e ast.Expr, stack []ast.Node) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || !tv.IsValue() {
		return false
	}
	if !isTypedAtomic(tv.Type) {
		return false
	}
	if len(stack) == 0 {
		return true
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.UnaryExpr:
		if parent.Op == token.AND {
			return false // &x.counter: address taken, sound
		}
	case *ast.SelectorExpr:
		if parent.X == e {
			return false // x.counter.Add(1): method (or field) access, sound
		}
	case *ast.ParenExpr:
		return isAtomicValueCopy(pkg, parent, stack[:len(stack)-1])
	default:
	}
	return true
}

// isTypedAtomic reports whether t is a named type declared in sync/atomic
// (atomic.Int64, atomic.Pointer[T], atomic.Value, ...).
func isTypedAtomic(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// typeLabel renders e's type for messages (atomic.Int64).
func typeLabel(pkg *Package, e ast.Expr) string {
	if tv, ok := pkg.Info.Types[e]; ok {
		return types.TypeString(tv.Type, func(p *types.Package) string { return p.Name() })
	}
	return "atomic"
}
