// Package alloc seeds the escape oracle's fixture: allocation sites in
// //elsa:hotpath kernels that the compiler either stack-allocates
// (non-escaping, constant size) or reports under -gcflags='-m -l'. Each
// // want is the compiler's own report, on the line it prints it for.
// The always-allocate shapes -m does not print (maps, channels) are
// elsahotpath's, in testdata/hotpath.
package alloc

type scratch struct {
	buf []int
	out []*scratch
}

var global []int

// provenLocal is the payoff case: constant-size make, slice literal,
// &composite and a closure, none escaping — the compiler stack-
// allocates all of them, and the oracle stays silent where a syntactic
// ban would fire four times.
//
//elsa:hotpath
func provenLocal(n int) int {
	tmp := make([]int, 16)
	ws := []int{1, 2, 4}
	p := &scratch{}
	f := func(i int) int { return tmp[i&15] + ws[i%3] }
	sum := len(p.buf)
	for i := 0; i < n; i++ {
		sum += f(i)
	}
	return sum
}

//elsa:hotpath
func escapesByReturn() []int {
	xs := make([]int, 4) // want "make\(\[\]int, 4\) escapes to heap"
	return xs
}

//elsa:hotpath
func escapesToGlobal() {
	global = make([]int, 4) // want "make\(\[\]int, 4\) escapes to heap"
}

//elsa:hotpath
func escapesThroughField(s *scratch) {
	s.out = append(s.out, &scratch{}) // want "&scratch{} escapes to heap"
}

//elsa:hotpath
func nonConstSize(n int) int {
	xs := make([]int, n) // want "make\(\[\]int, n\) escapes to heap"
	return xs[0]
}

//elsa:hotpath
func tooBig() int {
	var big [9000]int64
	xs := big[:]
	ys := make([]int64, 9000) // want "make\(\[\]int64, 9000\) escapes to heap"
	return int(xs[0] + ys[0])
}

func retain(f func() int) func() int { return f }

//elsa:hotpath
func escapingClosure(base int) func() int {
	k := base
	g := func() int { return k } // want "func literal escapes to heap"
	return retain(g)
}

// indirection: the escape is two hops away — the make flows through a
// local, into a local struct, and out through the return.
//
//elsa:hotpath
func escapesIndirectly() *scratch {
	tmp := make([]int, 8) // want "make\(\[\]int, 8\) escapes to heap"
	var s scratch         // want "moved to heap: s"
	s.buf = tmp
	return &s
}

// &xs[i] of a []int points into the backing array even though an int
// element carries no references, so the make escapes with the pointer.
//
//elsa:hotpath
func escapesByElemAddr() *int {
	xs := make([]int, 4) // want "make\(\[\]int, 4\) escapes to heap"
	return &xs[0]
}

// the same through a selector + index chain.
//
//elsa:hotpath
func escapesByFieldElemAddr() *int {
	s := scratch{buf: make([]int, 2)} // want "make\(\[\]int, 2\) escapes to heap"
	return &s.buf[0]
}

type pair struct{ a, b int }

// no allocation site at all: the address of a plain local escapes, so
// the compiler moves the variable itself to the heap.
//
//elsa:hotpath
func heapMovedByFieldAddr() *int {
	var p pair // want "moved to heap: p"
	return &p.a
}

// addresses that never leave the frame stay on the stack.
//
//elsa:hotpath
func addrStaysLocal() int {
	xs := make([]int, 4)
	var p pair
	q, r := &xs[0], &p.a
	*q, *r = 3, 4
	return xs[0] + p.a
}

// suppressedLegacy: a reasoned //nolint:elsahotpath covers the oracle
// too — one contract, one suppression.
//
//elsa:hotpath
func (s *scratch) suppressedLegacy(n int) {
	s.buf = make([]int, n) //nolint:elsahotpath // amortized: grows once to capacity, reused per call
}

// unannotated functions are out of scope.
func unannotated() []int {
	return make([]int, 3)
}
