package sig

import (
	"math/rand"
	"reflect"
	"testing"
)

func (k kernelKind) String() string {
	switch k {
	case kernelSliding:
		return "sliding"
	case kernelBitpack:
		return "bitpack"
	}
	return "auto"
}

// TestKernelsMatchReference is the extended randomized property test of
// the kernels: each forced kernel (sliding, bit-packed) must return
// bit-identical results to the frozen pre-change reference across all
// train density regimes. The per-kernel use counters prove the forced
// paths actually ran rather than falling back.
func TestKernelsMatchReference(t *testing.T) {
	for _, kind := range []kernelKind{kernelSliding, kernelBitpack} {
		t.Run(kind.String(), func(t *testing.T) {
			used := 0
			var sc scratch
			rng := rand.New(rand.NewSource(4000 + int64(kind)))
			for trial := 0; trial < 300; trial++ {
				trains := randomTrains(rng, trainDensity(trial%3))
				cfg := DefaultCrossCorrConfig()
				if trial%2 == 0 {
					cfg.MaxLag = 1 + rng.Intn(400)
				}
				if trial%5 == 0 {
					cfg.Horizon = 10000
					cfg.MinCount = 2
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
				d1, c1, s1, ok1 := sc.crossCorrelate(a, b, cfg, kind)
				d2, c2, s2, ok2 := referenceCrossCorrelate(a, b, cfg)
				if d1 != d2 || c1 != c2 || s1 != s2 || ok1 != ok2 {
					t.Fatalf("trial %d: %s kernel diverged: (%d,%d,%v,%v) vs (%d,%d,%v,%v)",
						trial, kind, d1, c1, s1, ok1, d2, c2, s2, ok2)
				}
				if sc.lastKernel == kind {
					used++
				}
			}
			if used < 200 {
				t.Fatalf("forced %s kernel only ran %d/300 trials; the force plumbing is broken", kind, used)
			}
		})
	}
}

// TestAllPairsForcedKernelsMatchReference re-runs the end-to-end AllPairs
// equivalence with each kernel forced through the whole worker pool.
func TestAllPairsForcedKernelsMatchReference(t *testing.T) {
	const kind = kernelBitpack
	t.Run(kind.String(), func(t *testing.T) {
		rng := rand.New(rand.NewSource(5000 + int64(kind)))
		for trial := 0; trial < 10; trial++ {
			trains := randomTrains(rng, trainDensity(trial%3))
			cfg := DefaultCrossCorrConfig()
			got, _ := allPairsStats(trains, cfg, kind, exactSweepBudget)
			want := referenceAllPairs(trains, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: forced kernel diverged\n got=%v\nwant=%v", kind, trial, got, want)
			}
		}
	})
}

// TestKernelDuplicateFallback pins the off-contract guard: trains with
// duplicate spikes (which the bitset representation would collapse) must
// be routed to the sliding sweep and still match the duplicate-counting
// reference exactly.
func TestKernelDuplicateFallback(t *testing.T) {
	a := []int{10, 10, 40, 90}
	b := []int{12, 12, 44, 44, 95}
	const kind = kernelBitpack
	cfg := DefaultCrossCorrConfig()
	cfg.MaxLag = 20
	cfg.MinCount = 1
	cfg.MinScore = 0.01
	var sc scratch
	d1, c1, s1, ok1 := sc.crossCorrelate(a, b, cfg, kind)
	if sc.lastKernel != kernelSliding {
		t.Fatalf("forced %s on duplicate trains ran %s, want sliding fallback", kind, sc.lastKernel)
	}
	d2, c2, s2, ok2 := referenceCrossCorrelate(a, b, cfg)
	if d1 != d2 || c1 != c2 || s1 != s2 || ok1 != ok2 {
		t.Fatalf("%s fallback diverged: (%d,%d,%v,%v) vs (%d,%d,%v,%v)", kind, d1, c1, s1, ok1, d2, c2, s2, ok2)
	}
}

// TestKernelsZeroAlloc extends the warm-scratch zero-allocation proof to
// the bit-packed kernel.
func TestKernelsZeroAlloc(t *testing.T) {
	var a, b []int
	for i := 0; i < 400; i++ {
		a = append(a, i*3)
		b = append(b, i*3+7)
	}
	const kind = kernelBitpack
	cfg := DefaultCrossCorrConfig()
	var sc scratch
	sc.crossCorrelate(a, b, cfg, kind) // warm the buffers
	if sc.lastKernel != kind {
		t.Fatalf("forced %s ran %s", kind, sc.lastKernel)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sc.crossCorrelate(a, b, cfg, kind)
	})
	if allocs != 0 {
		t.Errorf("warm %s kernel allocates %.1f objects per run, want 0", kind, allocs)
	}
}

// TestChooseKernelShape sanity-checks the dispatch heuristic's regime
// boundaries: sparse long-horizon pairs stay on the sliding sweep, dense
// short-span pairs leave it.
func TestChooseKernelShape(t *testing.T) {
	if k := chooseKernel(8, 8, 1<<20, 360); k != kernelSliding {
		t.Errorf("sparse wide pair chose %s, want sliding", k)
	}
	if k := chooseKernel(2000, 2000, 8000, 360); k == kernelSliding {
		t.Error("dense short-span pair stayed on the sliding sweep")
	}
}

// BenchmarkKernels measures the two kernels on a dense pair, the regime
// where the dispatch decision matters.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	horizon := 8640
	var a, bb []int
	for t := 0; t < horizon; t++ {
		if rng.Intn(4) == 0 {
			a = append(a, t)
		}
		if rng.Intn(4) == 0 {
			bb = append(bb, t)
		}
	}
	for _, kind := range []kernelKind{kernelSliding, kernelBitpack} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := DefaultCrossCorrConfig()
			var sc scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.crossCorrelate(a, bb, cfg, kind)
			}
		})
	}
}
