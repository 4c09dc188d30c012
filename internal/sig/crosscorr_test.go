package sig

import (
	"math/rand"
	"testing"
)

func TestCrossCorrelateFixedDelay(t *testing.T) {
	cfg := DefaultCrossCorrConfig()
	a := []int{100, 200, 300, 400, 500}
	b := make([]int, len(a))
	for i, v := range a {
		b[i] = v + 6 // one-minute delay at 10 s sampling
	}
	delay, count, score, ok := CrossCorrelate(a, b, cfg)
	if !ok {
		t.Fatal("expected correlation")
	}
	if delay != 6 {
		t.Errorf("delay = %d, want 6", delay)
	}
	if count != len(a) {
		t.Errorf("count = %d, want %d", count, len(a))
	}
	if score < 0.99 {
		t.Errorf("score = %v, want ~1", score)
	}
}

func TestCrossCorrelateToleratesJitter(t *testing.T) {
	cfg := DefaultCrossCorrConfig()
	rng := rand.New(rand.NewSource(51))
	var a, b []int
	for i := 0; i < 40; i++ {
		base := i * 500
		a = append(a, base)
		b = append(b, base+12+rng.Intn(3)-1) // 12 +/- 1
	}
	delay, _, _, ok := CrossCorrelate(a, b, cfg)
	if !ok {
		t.Fatal("expected correlation despite jitter")
	}
	if delay < 11 || delay > 13 {
		t.Errorf("delay = %d, want ~12", delay)
	}
}

func TestCrossCorrelateRejectsUnrelated(t *testing.T) {
	cfg := DefaultCrossCorrConfig()
	rng := rand.New(rand.NewSource(52))
	var a, b []int
	for i := 0; i < 50; i++ {
		a = append(a, rng.Intn(1000000))
		b = append(b, rng.Intn(1000000))
	}
	sortInts(a)
	sortInts(b)
	if _, _, _, ok := CrossCorrelate(a, b, cfg); ok {
		t.Error("unrelated sparse trains should not correlate")
	}
}

func TestCrossCorrelateEmpty(t *testing.T) {
	cfg := DefaultCrossCorrConfig()
	if _, _, _, ok := CrossCorrelate(nil, []int{1}, cfg); ok {
		t.Error("empty train should not correlate")
	}
	if _, _, _, ok := CrossCorrelate([]int{1}, nil, cfg); ok {
		t.Error("empty train should not correlate")
	}
	// b entirely outside [a[0], a[last]+MaxLag]: the clipped window is
	// empty and the histogram stays zero.
	a := []int{1000, 1010, 1020}
	for _, b := range [][]int{{1, 2, 3, 999}, {1020 + cfg.MaxLag + 1, 5000}} {
		if _, _, _, ok := CrossCorrelate(a, b, cfg); ok {
			t.Errorf("b=%v never follows a within MaxLag, yet correlates", b)
		}
	}
}

func TestCrossCorrelateMinCount(t *testing.T) {
	cfg := DefaultCrossCorrConfig()
	cfg.MinCount = 5
	a := []int{10, 20}
	b := []int{13, 23}
	if _, _, _, ok := CrossCorrelate(a, b, cfg); ok {
		t.Error("two co-occurrences should fail MinCount=5")
	}
}

func TestAllPairsFindsChain(t *testing.T) {
	cfg := DefaultCrossCorrConfig()
	trains := SpikeTrains{}
	var s1, s2, s3 []int
	for i := 0; i < 30; i++ {
		base := i * 1000
		s1 = append(s1, base)
		s2 = append(s2, base+6)
		s3 = append(s3, base+10)
	}
	trains[1], trains[2], trains[3] = s1, s2, s3
	pairs := AllPairs(trains, cfg)
	want := map[[2]int]int{{1, 2}: 6, {1, 3}: 10, {2, 3}: 4}
	found := map[[2]int]int{}
	for _, p := range pairs {
		found[[2]int{p.A, p.B}] = p.Delay
	}
	for k, d := range want {
		if got, ok := found[k]; !ok || got != d {
			t.Errorf("pair %v: delay %d, want %d (found=%v)", k, got, d, ok)
		}
	}
}

func TestAllPairsSimultaneousKeptOnce(t *testing.T) {
	cfg := DefaultCrossCorrConfig()
	var s []int
	for i := 0; i < 20; i++ {
		s = append(s, i*100)
	}
	trains := SpikeTrains{5: s, 9: append([]int(nil), s...)}
	pairs := AllPairs(trains, cfg)
	n := 0
	for _, p := range pairs {
		if p.Delay == 0 {
			n++
			if p.A > p.B {
				t.Errorf("simultaneous pair stored with A > B: %+v", p)
			}
		}
	}
	if n != 1 {
		t.Errorf("simultaneous pair count = %d, want 1", n)
	}
}

// TestAllPairsDeterministicOrder: AllPairs has no final sort; its output
// is in strictly increasing (A, B) order because the prefilter emits its
// candidates that way and ScorePairs keeps input order.
func TestAllPairsDeterministicOrder(t *testing.T) {
	cfg := DefaultCrossCorrConfig()
	trains := SpikeTrains{}
	for id := 0; id < 6; id++ {
		var s []int
		for i := 0; i < 25; i++ {
			s = append(s, i*800+id*3)
		}
		trains[id] = s
	}
	p1 := AllPairs(trains, cfg)
	p2 := AllPairs(trains, cfg)
	if len(p1) != len(p2) {
		t.Fatalf("non-deterministic pair count: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, p1[i], p2[i])
		}
		if i > 0 && (p1[i-1].A > p1[i].A || p1[i-1].A == p1[i].A && p1[i-1].B >= p1[i].B) {
			t.Fatalf("pairs %d and %d out of (A, B) order: %+v then %+v", i-1, i, p1[i-1], p1[i])
		}
	}
	if len(p1) < 2 {
		t.Fatalf("%d pairs kept: the order check proves nothing", len(p1))
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestScorePairsMatchesCrossCorrelate holds the pooled scorer to the
// one-off kernel pair by pair, in input order: random pairs over sparse,
// dense and bursty trains (so both histogram kernels run), both directions
// of a simultaneous pair (only the smaller-id-first one is kept), pairs
// naming an empty or absent train, and pairs repeated in the input.
func TestScorePairsMatchesCrossCorrelate(t *testing.T) {
	rng := rand.New(rand.NewSource(6060))
	used := map[kernelKind]int{}
	simultaneous := map[bool]int{} // kept -> count of delay-0 acceptances
	for trial := 0; trial < 60; trial++ {
		trains := randomTrains(rng, trainDensity(trial%3))
		cfg := DefaultCrossCorrConfig()
		if trial%4 == 1 {
			cfg.MaxLag = 6
			cfg.SymmetricOnly = true
		}
		// A twin of train 1 under a larger and a smaller id makes a
		// simultaneous pair in both directions; 0 is empty, 99 absent.
		trains[50] = append([]int(nil), trains[1]...)
		trains[0] = []int{}
		ids := []int{0, 1, 50, 99}
		for id := range trains {
			ids = append(ids, id)
		}
		var pairs [][2]int
		for k := 0; k < 40; k++ {
			a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if a == b {
				continue
			}
			pairs = append(pairs, [2]int{a, b})
			if k%5 == 0 {
				pairs = append(pairs, [2]int{b, a}, [2]int{a, b})
			}
		}
		pairs = append(pairs, [2]int{1, 50}, [2]int{50, 1})

		got, kept := ScorePairs(trains, pairs, cfg)
		if len(got) != len(pairs) || len(kept) != len(pairs) {
			t.Fatalf("trial %d: %d pairs in, %d/%d results out", trial, len(pairs), len(got), len(kept))
		}
		var sc scratch
		for i, p := range pairs {
			a, b := p[0], p[1]
			delay, count, score, ok := CrossCorrelate(trains[a], trains[b], cfg)
			want := PairCorrelation{A: a, B: b, Delay: delay, Count: count, Score: score}
			wantKept := ok && !(delay == 0 && a > b)
			if got[i] != want || kept[i] != wantKept {
				t.Fatalf("trial %d pair %d (%d,%d): got %+v kept=%v, want %+v kept=%v",
					trial, i, a, b, got[i], kept[i], want, wantKept)
			}
			if ok && delay == 0 {
				simultaneous[wantKept]++
			}
			if len(trains[a]) > 0 && len(trains[b]) > 0 {
				sc.crossCorrelate(trains[a], trains[b], cfg, kernelAuto)
				used[sc.lastKernel]++
			}
		}
	}
	if used[kernelSliding] == 0 || used[kernelBitpack] == 0 {
		t.Fatalf("kernels exercised %v: want both the sliding and the bit-packed kernel", used)
	}
	if simultaneous[true] == 0 || simultaneous[false] == 0 {
		t.Fatalf("simultaneous acceptances %v: want both a kept and a dropped direction", simultaneous)
	}
}
