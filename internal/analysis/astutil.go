package analysis

import (
	"go/ast"
	"go/types"
)

// calleeOf resolves the object a call expression invokes: the *types.Func
// for static calls and interface method calls, the *types.Builtin for
// builtins, nil for calls through function-typed values.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return info.Uses[id] // generic function instantiation
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
	}
	return nil
}

// isConversion reports whether call is a type conversion rather than a
// function call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}
