package par

import (
	"runtime"
	"testing"
)

// TestEachVisitsEveryIndexOnce: at one and at several workers every index
// in [0, n) is handed out exactly once, each worker's scratch persists
// across the indices it runs, and n = 0 calls nothing.
func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 1000} {
			hits := make([]int, n)
			var calls []int
			Each(n, func(i int, s *[]int) {
				hits[i]++
				*s = append(*s, i)
				if i == n-1 {
					calls = *s // the worker that ran the last index
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: index %d ran %d times", procs, n, i, h)
				}
			}
			if n > 0 && (len(calls) == 0 || calls[len(calls)-1] != n-1) {
				t.Fatalf("GOMAXPROCS=%d n=%d: the worker's scratch did not carry its calls: %v", procs, n, calls)
			}
			if procs == 1 && len(calls) != n {
				t.Fatalf("GOMAXPROCS=1 n=%d: one worker ran %d of %d indices", n, len(calls), n)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
