// Package par is the one fan-out the offline phase uses: independent
// indexed work spread over the process's CPUs, each worker owning one
// reusable scratch value, results written by the callback into
// per-index slots so the merged output never depends on scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i, s) once for every i in [0, n) on min(GOMAXPROCS, n)
// workers. Each worker owns one zero S for its whole run and hands it to
// every call it makes, so fn can recycle buffers across indices; fn must
// touch no state another index writes except through its own slot i.
// Indices are handed out through an atomic cursor, so a slow index holds
// up only its own worker. Each returns when every call has.
func Each[S any](n int, fn func(i int, s *S)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var s S
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i, &s)
			}
		}()
	}
	wg.Wait()
}
