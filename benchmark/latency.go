package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// samples is the harness's latency recorder: it keeps every observation
// and sorts on demand, so a quantile is an observed value, not a bucket
// label. internal/load's power-of-two histogram is not reused because
// adjacent readings differ by 2x (the committed BENCH_serve.json p99 reads
// 49.152us and a rerun of the same code 98.304us); a pass here holds at
// most a few hundred thousand samples, so exact storage is cheap.
type samples struct {
	ns     []int64
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.ns = append(s.ns, int64(d))
	s.sorted = false
}

func (s *samples) n() int { return len(s.ns) }

// quantile returns the nearest-rank q-quantile in nanoseconds, 0 when
// empty.
func (s *samples) quantile(q float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	if !s.sorted {
		slices.Sort(s.ns)
		s.sorted = true
	}
	rank := int(math.Ceil(q*float64(len(s.ns)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.ns) {
		rank = len(s.ns) - 1
	}
	return float64(s.ns[rank])
}

func (s *samples) max() float64 { return s.quantile(1) }

// keepFastest folds one more repeat of the same work into s, which then
// holds one value per unit of work: the smallest seen. Every row times the
// same units in the same order (the ticks or records of one stream, once
// per pass). The stream is the same in every pass, so a unit's work is too,
// and what differs between its repeats is the host and the collector, which
// only ever add time: a pre-emption that lands on tick i in one pass does
// not land on it in all of them. It reports false, and folds nothing, when
// row does not time the units the earlier rows did.
func (s *samples) keepFastest(row []int64) bool {
	if s.ns == nil {
		s.ns = slices.Clone(row)
		return true
	}
	if len(row) != len(s.ns) {
		return false
	}
	for i, ns := range row {
		s.ns[i] = min(s.ns[i], ns)
	}
	s.sorted = false
	return true
}

// median returns the middle of vs (mean of the two middle values when
// even), 0 when empty. It does not reorder vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}
