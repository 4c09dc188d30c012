package experiments

import (
	"fmt"
	"strings"
	"sync"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/stats"
)

// RobustnessResult sweeps the headline Table III numbers across campaign
// seeds, reporting mean and standard deviation — the sanity check a single
// ten-month log cannot provide and the paper's own future-work concern
// about short training windows.
type RobustnessResult struct {
	Seeds     int
	Precision stats.Online
	Recall    stats.Online
	// PerSeed keeps the individual points for inspection.
	PerSeed []RobustnessPoint
}

// RobustnessPoint is one seed's outcome.
type RobustnessPoint struct {
	Seed      int64
	Precision float64
	Recall    float64
}

// Robustness runs the hybrid pipeline across n seeds at the given scale,
// campaigns in parallel.
func Robustness(sc Scale, n int) *RobustnessResult {
	if n < 1 {
		n = 1
	}
	res := &RobustnessResult{Seeds: n, PerSeed: make([]RobustnessPoint, n)}
	// At most four campaigns run at once. The cap bounds memory, not CPU:
	// each campaign holds a whole generated log, and training inside it
	// already fans out over every core through par.Each.
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s := sc
			s.Seed = sc.Seed + int64(i)
			c := BGL(s)
			out := c.Outcome(correlate.Hybrid)
			res.PerSeed[i] = RobustnessPoint{Seed: s.Seed, Precision: out.Precision, Recall: out.Recall}
		}(i)
	}
	wg.Wait()
	for _, p := range res.PerSeed {
		res.Precision.Add(p.Precision)
		res.Recall.Add(p.Recall)
	}
	return res
}

// String renders the sweep.
func (r *RobustnessResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness — hybrid across %d seeds: precision %.1f%% ± %.1f, recall %.1f%% ± %.1f\n",
		r.Seeds, 100*r.Precision.Mean(), 100*r.Precision.StdDev(),
		100*r.Recall.Mean(), 100*r.Recall.StdDev())
	for _, p := range r.PerSeed {
		fmt.Fprintf(&b, "  seed %-4d precision %5.1f%%  recall %5.1f%%\n",
			p.Seed, 100*p.Precision, 100*p.Recall)
	}
	return b.String()
}
