// Package hotpath seeds one violation of every construct the
// elsahotpath screen bans, plus clean and suppressed counterexamples.
// The allocation sites escape analysis may rescue (make, new, composite
// literals, closures) live in testdata/alloc, the escape oracle's
// fixture.
package hotpath

import "fmt"

type scratch struct {
	buf []int
}

// clean is allocation-free syntax: slicing, indexing and arithmetic.
//
//elsa:hotpath
func (s *scratch) clean(n int) int {
	sum := 0
	for i := 0; i < n; i++ {
		sum += i
	}
	if len(s.buf) > 0 {
		sum += s.buf[0]
	}
	return sum
}

//elsa:hotpath
func appends(xs []int, v int) []int {
	return append(xs, v) // want "append may grow and allocate"
}

// stackable constructs are the compiler's to judge: the screen stays
// silent here, the escape oracle reads the verdict.
//
//elsa:hotpath
func stackable(n int) int {
	xs := make([]int, 8)
	p := &scratch{}
	f := func(i int) int { return xs[i] }
	return f(0) + len(p.buf) + n
}

//elsa:hotpath
func formats(n int) string {
	return fmt.Sprintf("%d", n) // want "fmt.Sprintf allocates" "implicit conversion of int to interface"
}

//elsa:hotpath
func conversions(s string) []byte {
	return []byte(s) // want "conversion copies"
}

// maps and channels are the two always-allocate shapes the compiler's
// -m report does not print, so the screen owns them.
//
//elsa:hotpath
func mapAlloc() int {
	m := map[int]int{1: 2} // want "not provably allocation-free"
	return m[1]
}

//elsa:hotpath
func makesMap(n int) int {
	m := make(map[int]int, n) // want "make.map. in a hotpath kernel is not provably allocation-free"
	return len(m)
}

//elsa:hotpath
func chanAlloc() chan int {
	return make(chan int) // want "make.chan. in a hotpath kernel allocates"
}

type boxer interface{ M() }

type impl struct{}

func (impl) M() {}

func takesIface(b boxer) { b.M() }

//elsa:hotpath
func boxes() {
	var v impl
	takesIface(v) // want "implicit conversion of impl to interface"
}

//elsa:hotpath
func boxesOnReturn() boxer {
	var v impl
	return v // want "implicit conversion of impl to interface"
}

//elsa:hotpath
func spawns() {
	go func() {}() // want "goroutine launch allocates a stack"
}

// closure returns pair with the closure's own signature, not the
// kernel's: the int return below is not a boxing site even though the
// kernel returns any, and boxing inside a closure is judged against
// the closure's own results.
//
//elsa:hotpath
func closureReturns() any {
	f := func() int { return 1 }
	sum := f()
	g := func() boxer {
		var v impl
		return v // want "implicit conversion of impl to interface"
	}
	g()
	_ = sum
	return nil
}

// suppressed shows the escape hatch: amortized growth into a reused
// buffer, with the reason recorded.
//
//elsa:hotpath
func (s *scratch) suppressed(v int) {
	s.buf = append(s.buf, v) //nolint:elsahotpath // amortized: buf is reused across calls, growth is one-time
}

// unannotated functions may do whatever they like.
func unannotated(n int) []int {
	return make([]int, n)
}
