package sig

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceCrossCorrelate is a frozen, verbatim copy of the kernel as it
// stood before the Scratch/prefilter fast path: it allocates fresh
// hist/prefix buffers on every call. The equivalence tests below compare
// the fast path against it bit for bit.
func referenceCrossCorrelate(a, b []int, cfg CrossCorrConfig) (delay, count int, score float64, ok bool) {
	if len(a) == 0 || len(b) == 0 || cfg.MaxLag < 0 {
		return 0, 0, 0, false
	}
	hist := make([]int, cfg.MaxLag+1)
	for _, t := range a {
		lo := sort.SearchInts(b, t)
		for j := lo; j < len(b) && b[j]-t <= cfg.MaxLag; j++ {
			hist[b[j]-t]++
		}
	}
	prefix := make([]int, len(hist)+1)
	for i, h := range hist {
		prefix[i+1] = prefix[i] + h
	}
	window := func(lo, hi int) int {
		if lo < 0 {
			lo = 0
		}
		if hi > cfg.MaxLag {
			hi = cfg.MaxLag
		}
		if lo > hi {
			return 0
		}
		return prefix[hi+1] - prefix[lo]
	}
	best, bestCount, bestRaw := -1, 0, 0
	bestDensity := 0.0
	for lag := 0; lag <= cfg.MaxLag; lag++ {
		tol := DelayTolerance(lag, cfg.Tolerance)
		c := window(lag-tol, lag+tol)
		if c == 0 {
			continue
		}
		density := float64(c) / float64(2*tol+1)
		if density > bestDensity || (density == bestDensity && hist[lag] > bestRaw) {
			best, bestCount, bestRaw, bestDensity = lag, c, hist[lag], density
		}
	}
	if best < 0 || bestCount < cfg.MinCount {
		return 0, 0, 0, false
	}
	norm := math.Sqrt(float64(len(a)) * float64(len(b)))
	sc := float64(bestCount) / norm
	if conf := float64(bestCount) / float64(len(a)); !cfg.SymmetricOnly && conf > sc && liftOK(conf, best, len(b), cfg) {
		sc = conf
	}
	if sc > 1 {
		sc = 1
	}
	if sc < cfg.MinScore {
		return 0, 0, 0, false
	}
	return best, bestCount, sc, true
}

// referenceAllPairs is the pre-change AllPairs: a blind sequential
// enumeration of every ordered pair through the reference kernel.
func referenceAllPairs(trains SpikeTrains, cfg CrossCorrConfig) []PairCorrelation {
	ids := make([]int, 0, len(trains))
	for id := range trains {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []PairCorrelation
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			delay, count, score, ok := referenceCrossCorrelate(trains[a], trains[b], cfg)
			if !ok {
				continue
			}
			if delay == 0 && a > b {
				continue
			}
			out = append(out, PairCorrelation{A: a, B: b, Delay: delay, Count: count, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// trainDensity names a spike-train generation regime.
type trainDensity int

const (
	sparseTrains trainDensity = iota
	denseTrains
	burstyTrains
)

func (d trainDensity) String() string {
	return [...]string{"sparse", "dense", "bursty"}[d]
}

// randomTrains generates a SpikeTrains set in the given density regime.
// Sparse: a handful of spikes scattered over a large horizon. Dense: high
// occupancy over a short horizon. Bursty: tight clusters separated by
// silence, some trains sharing burst anchors so real correlations appear.
func randomTrains(rng *rand.Rand, d trainDensity) SpikeTrains {
	n := 2 + rng.Intn(10)
	horizon := 2000 + rng.Intn(8000)
	trains := make(SpikeTrains, n)
	// Shared anchors give correlated structure across trains.
	anchors := make([]int, 3+rng.Intn(8))
	for i := range anchors {
		anchors[i] = rng.Intn(horizon)
	}
	for id := 0; id < n; id++ {
		set := map[int]bool{}
		switch d {
		case sparseTrains:
			for k := 0; k < 2+rng.Intn(8); k++ {
				set[rng.Intn(horizon)] = true
			}
		case denseTrains:
			for k := 0; k < horizon/4; k++ {
				set[rng.Intn(horizon)] = true
			}
		case burstyTrains:
			delay := rng.Intn(40)
			for _, a := range anchors {
				if rng.Intn(3) == 0 {
					continue
				}
				for k := 0; k < 1+rng.Intn(4); k++ {
					t := a + delay + rng.Intn(5)
					if t < horizon {
						set[t] = true
					}
				}
			}
			if len(set) == 0 {
				set[rng.Intn(horizon)] = true
			}
		}
		train := make([]int, 0, len(set))
		for t := range set {
			train = append(train, t)
		}
		sort.Ints(train)
		trains[id+1] = train
	}
	return trains
}

// TestAllPairsMatchesReference is the randomized property test: across
// spike-train densities, config variations and both prefilter sweep
// regimes (exact per-instance counting and the block-bucket upper bound),
// AllPairs must return exactly the same []PairCorrelation as the naive
// pre-change implementation. Run under -race it also exercises the
// worker-pool scratch discipline.
func TestAllPairsMatchesReference(t *testing.T) {
	regimes := []struct {
		name   string
		budget int
	}{
		{"exact-sweep", 1 << 62},
		{"block-sweep", 0},
		{"adaptive", exactSweepBudget},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			for _, d := range []trainDensity{sparseTrains, denseTrains, burstyTrains} {
				t.Run(d.String(), func(t *testing.T) {
					rng := rand.New(rand.NewSource(1000 + int64(d)))
					for trial := 0; trial < 15; trial++ {
						trains := randomTrains(rng, d)
						cfg := DefaultCrossCorrConfig()
						switch trial % 4 {
						case 1:
							cfg.MaxLag = 6 // the data-mining baseline's narrow window
							cfg.SymmetricOnly = true
						case 2:
							cfg.Horizon = 10000 // engage the lift gate
							cfg.MinCount = 2
						case 3:
							cfg.MaxLag = 0 // simultaneous-only edge
							cfg.MinScore = 0.05
						}
						got, _ := allPairsStats(trains, cfg, kernelAuto, reg.budget)
						want := referenceAllPairs(trains, cfg)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s trial %d: fast path diverged\n got=%v\nwant=%v", d, trial, got, want)
						}
					}
				})
			}
		})
	}
}

// exactSweep is the prefilter's exact sweep as it stood before the windowed
// counter, frozen: every spike walks every later in-window spike, one
// increment per ordered co-occurrence. It is the reference the coWindow
// must equal cell for cell, from the batch side
// (TestWindowSweepMatchesFrozenExactSweep, FuzzPrefilterPairs) and from the
// streaming side (TestAccumulatorMatchesBatchSweep, FuzzIncrementalCounters),
// and is not to be optimised.
func exactSweep(tl []spike, maxLag int, counts *pairCounter) {
	j := 0
	for i := range tl {
		if j < i+1 {
			j = i + 1
		}
		for j < len(tl) && tl[j].t-tl[i].t <= maxLag {
			j++
		}
		for k := i + 1; k < j; k++ {
			if tl[k].id == tl[i].id {
				continue
			}
			counts.add(tl[i].id, tl[k].id, 1)
			if tl[k].t == tl[i].t {
				// Simultaneous: the reverse order sees the same delay-0 hit.
				counts.add(tl[k].id, tl[i].id, 1)
			}
		}
	}
}

// sameDenseCounts fails unless the two counters' flat tables agree cell for
// cell and neither spilled into the hashed overflow.
func sameDenseCounts(t testing.TB, got, want *pairCounter, at string) {
	t.Helper()
	if got.e != want.e || len(got.m) != 0 || len(want.m) != 0 {
		t.Fatalf("%s: table sides %d vs %d, overflow %d vs %d", at, got.e, want.e, len(got.m), len(want.m))
	}
	for k := range want.dense {
		if got.dense[k] != want.dense[k] {
			t.Fatalf("%s: pair (%d,%d) = %d, frozen exactSweep = %d",
				at, k/int(want.e), k%int(want.e), got.dense[k], want.dense[k])
		}
	}
}

// TestWindowSweepMatchesFrozenExactSweep: over random sparse, dense and
// bursty timelines — simultaneous spikes across events, and trains that
// repeat a tick, which training never builds but the sweep must not count
// as a self-pair — the windowed counter fills the dense table exactly as
// the frozen per-instance sweep does.
func TestWindowSweepMatchesFrozenExactSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 120; trial++ {
		trains := randomTrains(rng, trainDensity(trial%3))
		ids := make([]int, 0, len(trains))
		for id := range trains {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		if trial%2 == 1 {
			// Repeat some ticks inside a train and pin one onto another
			// train's tick.
			for _, id := range ids {
				tr := trains[id]
				for k := 0; k < 1+len(tr)/8; k++ {
					tr = append(tr, tr[rng.Intn(len(tr))])
				}
				other := trains[ids[rng.Intn(len(ids))]]
				tr = append(tr, other[rng.Intn(len(other))])
				sort.Ints(tr)
				trains[id] = tr
			}
		}
		maxLag := []int{0, 1, 6, 60, 360}[trial%5]
		tl := mergeTimeline(trains, ids)
		got, want := newPairCounter(len(ids)), newPairCounter(len(ids))
		windowSweep(tl, maxLag, got)
		exactSweep(tl, maxLag, want)
		sameDenseCounts(t, got, want, fmt.Sprintf("trial %d (%s, maxLag=%d)", trial, trainDensity(trial%3), maxLag))
	}
}

// TestScratchKernelMatchesReference compares the zero-alloc kernel against
// the frozen reference on random pairs, reusing one scratch throughout so
// stale buffer contents would be caught.
func TestScratchKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var sc scratch
	for trial := 0; trial < 300; trial++ {
		trains := randomTrains(rng, trainDensity(trial%3))
		cfg := DefaultCrossCorrConfig()
		if trial%2 == 0 {
			cfg.MaxLag = 1 + rng.Intn(400)
		}
		var a, b []int
		for _, tr := range trains {
			if a == nil {
				a = tr
			} else {
				b = tr
				break
			}
		}
		d1, c1, s1, ok1 := sc.crossCorrelate(a, b, cfg, kernelAuto)
		d2, c2, s2, ok2 := referenceCrossCorrelate(a, b, cfg)
		if d1 != d2 || c1 != c2 || s1 != s2 || ok1 != ok2 {
			t.Fatalf("trial %d: scratch kernel diverged: (%d,%d,%v,%v) vs (%d,%d,%v,%v)",
				trial, d1, c1, s1, ok1, d2, c2, s2, ok2)
		}
	}
}

// TestCrossCorrelateZeroAlloc verifies the scratch kernel allocates
// nothing once its buffers are warm.
func TestCrossCorrelateZeroAlloc(t *testing.T) {
	cfg := DefaultCrossCorrConfig()
	var a, b []int
	for i := 0; i < 50; i++ {
		a = append(a, i*100)
		b = append(b, i*100+7)
	}
	var sc scratch
	sc.crossCorrelate(a, b, cfg, kernelAuto) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		sc.crossCorrelate(a, b, cfg, kernelAuto)
	})
	if allocs != 0 {
		t.Errorf("warm scratch kernel allocates %.1f objects per run, want 0", allocs)
	}
}

// TestAllPairsStatsInvariants checks the pruning report is coherent with
// the returned pairs.
func TestAllPairsStatsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		trains := randomTrains(rng, burstyTrains)
		cfg := DefaultCrossCorrConfig()
		out, st := AllPairsStats(trains, cfg)
		if st.Events != len(trains) {
			t.Fatalf("Events = %d, want %d", st.Events, len(trains))
		}
		if st.Candidates != len(trains)*(len(trains)-1) {
			t.Fatalf("Candidates = %d, want %d", st.Candidates, len(trains)*(len(trains)-1))
		}
		if st.Scored > st.Candidates || st.Scored < 0 {
			t.Fatalf("Scored = %d out of range (candidates %d)", st.Scored, st.Candidates)
		}
		if st.Kept != len(out) {
			t.Fatalf("Kept = %d, want %d", st.Kept, len(out))
		}
		if st.Pruned() != st.Candidates-st.Scored {
			t.Fatalf("Pruned() = %d, want %d", st.Pruned(), st.Candidates-st.Scored)
		}
	}
}

// benchTrains builds an E-event-type spike-train set shaped like an
// outlier-filtered day: most trains sparse and unrelated, a few cascades
// with genuine delays.
func benchTrains(events int) SpikeTrains {
	rng := rand.New(rand.NewSource(42))
	trains := make(SpikeTrains, events)
	horizon := 8640 // one day at 10 s sampling
	for id := 0; id < events; id++ {
		set := map[int]bool{}
		for k := 0; k < 4+rng.Intn(12); k++ {
			set[rng.Intn(horizon)] = true
		}
		if id%10 == 1 { // cascade follower of id-1
			for _, t := range trains[id-1] {
				set[t+6+rng.Intn(2)] = true
			}
		}
		train := make([]int, 0, len(set))
		for t := range set {
			train = append(train, t)
		}
		sort.Ints(train)
		trains[id] = train
	}
	return trains
}

// BenchmarkAllPairsFastVsReference pits the prefilter+scratch path against
// the frozen pre-change implementation on a 200-event-type profile, making
// the fast-path win measurable in one place.
func BenchmarkAllPairsFastVsReference(b *testing.B) {
	trains := benchTrains(200)
	cfg := DefaultCrossCorrConfig()
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		var pairs int
		for i := 0; i < b.N; i++ {
			pairs = len(AllPairs(trains, cfg))
		}
		b.ReportMetric(float64(pairs), "pairs")
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		var pairs int
		for i := 0; i < b.N; i++ {
			pairs = len(referenceAllPairs(trains, cfg))
		}
		b.ReportMetric(float64(pairs), "pairs")
	})
}
