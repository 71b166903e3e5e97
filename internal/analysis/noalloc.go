package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
)

// NoAlloc enforces //rlc:noalloc: the annotated function's body must not
// perform any heap-allocating operation. Flagged constructs: make, new,
// append (which may grow), function literals, slice/map composite literals,
// &composite, string concatenation, string<->[]byte/[]rune conversions
// (except string(b) as a comparison operand or as the key of a map read,
// which the compiler evaluates in place), go statements, boxing a concrete
// value into an interface, and calls to callees that themselves allocate.
// Callees with source in the analysis
// universe are checked recursively and the finding is reported at the call
// site; callees without source (interface methods, func values) are flagged
// as unknowable unless allowlisted.
//
// Individual lines can be waived with `//rlc:allocok <reason>` — the waiver
// covers its own line and the next, for cold error paths inside hot
// functions.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc: "check that functions annotated //rlc:noalloc contain no allocating " +
		"operations, recursively through callees with known bodies",
	Run: runNoAlloc,
}

func runNoAlloc(pass *Pass) error {
	ac := &allocChecker{
		pass: pass,
		dirs: pass.Prog.Directives(),
		memo: make(map[types.Object]*allocVerdict),
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := pass.Pkg.Info.Defs[fn.Name]
			if ac.dirs.Of(obj)&dirNoAlloc == 0 {
				continue
			}
			ac.checkFunc(pass.Pkg, obj.(*types.Func), fn.Body, func(pos token.Pos, msg string) {
				p := pass.Fset.Position(pos)
				if ac.dirs.AllocOK(p.Filename, p.Line) {
					return
				}
				pass.Reportf(pos, "%s in //rlc:noalloc function %s", msg, fn.Name.Name)
			})
		}
	}
	return nil
}

// allocVerdict memoizes whether a callee's body allocates.
type allocVerdict struct {
	done bool
	bad  bool
	what string // first allocating construct found
}

type allocChecker struct {
	pass *Pass
	dirs *directiveIndex
	memo map[types.Object]*allocVerdict
}

// checkFunc walks one function body and reports every allocating construct.
// pkg is the package that owns the body (callees may live outside pass.Pkg);
// fn supplies the result types for return-boxing checks.
func (ac *allocChecker) checkFunc(pkg *Package, fn *types.Func, body *ast.BlockStmt, report func(token.Pos, string)) {
	info := pkg.Info
	var results *types.Tuple
	if sig, ok := fn.Type().(*types.Signature); ok {
		results = sig.Results()
	}
	// inPlace holds the string(b) conversions the compiler never
	// materialises, and stores the map index expressions that are assigned
	// to: a store keeps its key, so its conversion does copy. Inspect visits
	// a node before its children, so both are filled before the conversion
	// itself is reached.
	inPlace := make(map[ast.Expr]bool)
	stores := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "function literal allocates a closure")
			return false // its body runs under the closure's own budget
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
			return false
		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address of composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.Types[n.X].Type) {
				report(n.Pos(), "string concatenation allocates")
			}
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				inPlace[ast.Unparen(n.X)] = true
				inPlace[ast.Unparen(n.Y)] = true
			}
		case *ast.IndexExpr:
			if _, ok := info.Types[n.X].Type.Underlying().(*types.Map); ok && !stores[n] {
				inPlace[ast.Unparen(n.Index)] = true
			}
		case *ast.CallExpr:
			if inPlace[n] && isConversion(info, n) && isStringType(info.Types[n.Fun].Type) {
				break
			}
			ac.call(pkg, n, report)
			// Arguments were already considered by the call handler for
			// boxing; keep walking them for nested constructs.
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				stores[ast.Unparen(lhs)] = true
			}
			ac.boxingInAssign(info, n, report)
		case *ast.ReturnStmt:
			if results == nil || len(n.Results) != results.Len() {
				break
			}
			for i, res := range n.Results {
				if boxes(info, res, results.At(i).Type()) {
					report(res.Pos(), fmt.Sprintf("return value boxed into interface %s", results.At(i).Type()))
				}
			}
		}
		return true
	})
}

// call classifies one call expression: conversions, builtins, allowlisted
// callees, recursively-checked source callees, and unknowable callees.
func (ac *allocChecker) call(pkg *Package, call *ast.CallExpr, report func(token.Pos, string)) {
	info := pkg.Info
	if isConversion(info, call) {
		to := info.Types[call.Fun].Type
		from := info.Types[call.Args[0]].Type
		if allocatingConversion(from, to) {
			report(call.Pos(), fmt.Sprintf("conversion %s -> %s allocates", from, to))
		}
		return
	}
	obj := calleeOf(info, call)
	switch callee := obj.(type) {
	case *types.Builtin:
		switch callee.Name() {
		case "make":
			report(call.Pos(), "make allocates")
		case "new":
			report(call.Pos(), "new allocates")
		case "append":
			report(call.Pos(), "append may grow and allocate")
		}
		// len, cap, copy, delete, clear, min, max, panic, real, imag: free.
		return
	case *types.Func:
		if ac.dirs.Of(callee)&dirNoAlloc != 0 {
			return // checked under its own annotation
		}
		if allowlistedCallee(callee) {
			return
		}
		ac.boxingInCall(info, call, callee, report)
		if v := ac.verdictOf(callee); v != nil && v.bad {
			report(call.Pos(), fmt.Sprintf("calls %s which allocates (%s)", calleeLabel(callee), v.what))
		} else if v == nil {
			report(call.Pos(), fmt.Sprintf("calls %s whose body is outside the analysis universe: allocation unknowable", calleeLabel(callee)))
		}
		return
	default:
		report(call.Pos(), "call through a function value: allocation unknowable")
		return
	}
}

// verdictOf recursively decides whether fn's body allocates, memoized.
// Returns nil when the body is unavailable. Recursion cycles resolve to the
// in-progress (clean-so-far) verdict.
func (ac *allocChecker) verdictOf(fn *types.Func) *allocVerdict {
	if v, ok := ac.memo[fn]; ok {
		return v
	}
	decl := ac.pass.Prog.FuncDeclOf(fn)
	if decl == nil || decl.Body == nil {
		ac.memo[fn] = nil
		return nil
	}
	pkg := ac.pass.Prog.PackageOf(fn)
	v := &allocVerdict{}
	ac.memo[fn] = v // pre-publish for cycles
	ac.checkFunc(pkg, fn, decl.Body, func(pos token.Pos, msg string) {
		p := ac.pass.Fset.Position(pos)
		if ac.dirs.AllocOK(p.Filename, p.Line) {
			return
		}
		if !v.bad {
			v.bad = true
			v.what = fmt.Sprintf("%s at %s:%d", msg, p.Filename, p.Line)
		}
	})
	v.done = true
	return v
}

// boxingInCall flags concrete arguments passed to interface parameters.
func (ac *allocChecker) boxingInCall(info *types.Info, call *ast.CallExpr, callee *types.Func, report func(token.Pos, string)) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(info, arg, pt) {
			report(arg.Pos(), fmt.Sprintf("argument boxed into interface %s", pt))
		}
	}
}

// boxingInAssign flags concrete values assigned into interface-typed
// variables.
func (ac *allocChecker) boxingInAssign(info *types.Info, n *ast.AssignStmt, report func(token.Pos, string)) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, rhs := range n.Rhs {
		lt := info.Types[n.Lhs[i]].Type
		if lt == nil && n.Tok == token.DEFINE {
			continue // inferred type equals RHS type: no boxing
		}
		if boxes(info, rhs, lt) {
			report(rhs.Pos(), fmt.Sprintf("value boxed into interface %s", lt))
		}
	}
}

// boxes reports whether storing expr into a destination of type dst converts
// a concrete value to an interface.
func boxes(info *types.Info, expr ast.Expr, dst types.Type) bool {
	if dst == nil {
		return false
	}
	if _, ok := types.Unalias(dst).(*types.TypeParam); ok {
		return false // a constraint, not an interface value: the call instantiates
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	if _, ok := tv.Type.Underlying().(*types.Interface); ok {
		return false // interface-to-interface: no box
	}
	if _, ok := tv.Type.Underlying().(*types.Pointer); ok {
		return false // pointers fit an iface word without allocating
	}
	// Constant small values (untyped bool/int results of comparisons, etc.)
	// still box, but a zero-size value does not: the runtime backs every
	// zero-size box with the shared zerobase allocation, so e.g. boxing
	// context.backgroundCtx{} into context.Context is free.
	if stdSizes.Sizeof(tv.Type) == 0 {
		return false
	}
	return true
}

// stdSizes approximates the gc compiler's layout for the boxing check; only
// "is it zero-size" is asked of it, which every target answers identically.
var stdSizes = types.SizesFor("gc", runtime.GOARCH)

// allocatingConversion reports whether from -> to copies into fresh memory.
func allocatingConversion(from, to types.Type) bool {
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// allowlistedCallee lists callees known not to allocate even though their
// bodies are outside the recursive check (runtime-implemented, or clean on
// the paths this module exercises).
func allowlistedCallee(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "sync/atomic":
		return true
	case "runtime":
		return fn.Name() == "GOMAXPROCS" || fn.Name() == "Gosched" || fn.Name() == "KeepAlive"
	case "sync":
		return fn.Name() == "Lock" || fn.Name() == "Unlock" ||
			fn.Name() == "RLock" || fn.Name() == "RUnlock" ||
			fn.Name() == "TryLock" || fn.Name() == "Load" || fn.Name() == "Store" ||
			// Pool: a warm pool hands back a parked value; only a cold Get
			// runs the caller's New.
			fn.Name() == "Get" || fn.Name() == "Put"
	case "context":
		return fn.Name() == "Err" || fn.Name() == "Done"
	case "errors":
		return fn.Name() == "Is"
	case "math/bits":
		return true
	case "internal/bytealg":
		// The assembly search kernels under strings.IndexByte and
		// bytes.IndexByte; the package's MakeNoZero does allocate.
		return fn.Name() == "IndexByte" || fn.Name() == "IndexByteString"
	case "unsafe":
		return true
	}
	return false
}

// calleeLabel renders a callee as package.Func or (pkg.Recv).Method.
func calleeLabel(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", sig.Recv().Type(), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
