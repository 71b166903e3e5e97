// Package noalloc_a seeds allocating constructs inside //rlc:noalloc
// functions, the call-site flagging of allocating callees, the
// //rlc:allocok line waiver, and a misspelled directive.
package noalloc_a

import "sync/atomic"

// sum is a clean hot loop.
//
//rlc:noalloc
func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

//rlc:noalloc
func badMake(n int) []int {
	return make([]int, n) // want `make allocates`
}

//rlc:noalloc
func badNew() *int {
	return new(int) // want `new allocates`
}

//rlc:noalloc
func badAppend(xs []int, v int) []int {
	return append(xs, v) // want `append may grow and allocate`
}

//rlc:noalloc
func badClosure() func() int {
	return func() int { return 1 } // want `function literal allocates a closure`
}

//rlc:noalloc
func badGo() {
	go sum(nil) // want `go statement allocates a goroutine`
}

//rlc:noalloc
func badConcat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//rlc:noalloc
func badMapLit() map[int]int {
	return map[int]int{} // want `map literal allocates`
}

//rlc:noalloc
func badSliceLit() []int {
	return []int{1, 2} // want `slice literal allocates`
}

type pair struct{ a, b int }

//rlc:noalloc
func badAddrComposite() *pair {
	return &pair{1, 2} // want `address of composite literal allocates`
}

//rlc:noalloc
func badConv(s string) []byte {
	return []byte(s) // want `conversion string -> \[\]byte allocates`
}

// string(b) compared, or used as the key of a map read, is evaluated in
// place: the compiler never builds the string.
//
//rlc:noalloc
func okConvInPlace(m map[string]int, b []byte) int {
	if string(b) == "x" || "y" < string(b) {
		return 0
	}
	if v, ok := m[string(b)]; ok {
		return v
	}
	return m[(string(b))]
}

// A map store keeps its key, so the conversion copies.
//
//rlc:noalloc
func badConvMapStore(m map[string]int, b []byte) {
	m[string(b)] = 1 // want `conversion \[\]byte -> string allocates`
}

// Only the conversion itself is in place, not what it is handed to.
//
//rlc:noalloc
func badConvArg(b []byte) bool {
	return same(string(b), "x") // want `conversion \[\]byte -> string allocates`
}

func same(a, b string) bool { return a == b }

//rlc:noalloc
func badBoxReturn(v int) any {
	return v // want `return value boxed into interface`
}

func sink(v any) {}

//rlc:noalloc
func badBoxArg(x int) {
	sink(x) // want `argument boxed into interface`
}

// helperAlloc is NOT annotated; callers under //rlc:noalloc are flagged at
// the call site.
func helperAlloc(n int) []int {
	return make([]int, n)
}

//rlc:noalloc
func badAllocatingCallee(n int) []int {
	return helperAlloc(n) // want `calls noalloc_a.helperAlloc which allocates \(make allocates`
}

type doer interface{ do() }

//rlc:noalloc
func badInterfaceCall(d doer) {
	d.do() // want `allocation unknowable`
}

//rlc:noalloc
func badFuncValueCall(f func()) {
	f() // want `call through a function value: allocation unknowable`
}

//rlc:noalloc
func okWaivedColdPath(n int) []int {
	//rlc:allocok cold error path, measured off the hot loop
	return make([]int, n)
}

//rlc:noalloc
func okCallsNoalloc(xs []int) int {
	return sum(xs)
}

//rlc:noalloc
func okAtomics(p *atomic.Int64) int64 {
	return p.Load()
}

func first[T string | []byte](v T) byte { return v[0] }

// A type parameter is a constraint, not an interface value: the call
// instantiates first, it boxes nothing.
//
//rlc:noalloc
func okGenericArg(s string, b []byte) byte {
	return first(s) + first(b)
}

//rlc:noalloc
func okBuiltins(xs []int, dst []int) int {
	n := copy(dst, xs)
	return n + len(xs) + cap(dst)
}

type empty struct{}

type marker interface{ mark() }

func (empty) mark() {}

// Zero-size values box to the runtime's shared zerobase — no allocation —
// so handing an empty struct across an interface boundary is permitted.
//
//rlc:noalloc
func okZeroSizeBox() marker {
	return empty{}
}

//rlc:noalloc
func badNonZeroBox(n int) any {
	return n // want `boxed into interface`
}

// misspelled carries a directive name the suite does not know, so its
// allocation goes unchecked; the comment itself is the finding.
//
//rlc:noaloc // want `unknown directive //rlc:noaloc \(known: allocok, errcode, errcode-exempt, noalloc\)`
func misspelled(n int) []int {
	return make([]int, n)
}
