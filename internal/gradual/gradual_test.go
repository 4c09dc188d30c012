package gradual

import (
	"math/rand"
	"testing"

	"github.com/elsa-hpc/elsa/internal/sig"
)

// chainTrains builds spike trains where events 1 -> 2 -> 3 fire in a chain
// with the given delays, plus an unrelated event 9.
func chainTrains(n int, d2, d3 int) sig.SpikeTrains {
	rng := rand.New(rand.NewSource(71))
	t := sig.SpikeTrains{}
	var s1, s2, s3, s9 []int
	for i := 0; i < n; i++ {
		base := i*997 + rng.Intn(5)
		s1 = append(s1, base)
		s2 = append(s2, base+d2)
		s3 = append(s3, base+d3)
		s9 = append(s9, i*1013+37)
	}
	t[1], t[2], t[3], t[9] = s1, s2, s3, s9
	return t
}

func seedsFor(trains sig.SpikeTrains) []sig.PairCorrelation {
	return sig.AllPairs(trains, sig.DefaultCrossCorrConfig())
}

func TestMineRecoversChain(t *testing.T) {
	trains := chainTrains(40, 6, 10)
	cfg := DefaultConfig(50000)
	sets := Mine(trains, seedsFor(trains), cfg)
	if len(sets) == 0 {
		t.Fatal("no itemsets mined")
	}
	// The maximal chain {1@0, 2@6, 3@10} must be present.
	found := false
	for _, s := range sets {
		if s.Size() == 3 && s.First() == 1 && s.Last().Event == 3 && s.Last().Delay == 10 {
			found = true
			if s.Confidence < 0.8 {
				t.Errorf("chain confidence = %v, want high", s.Confidence)
			}
			if s.PValue >= cfg.Alpha {
				t.Errorf("chain p-value = %v, want < alpha", s.PValue)
			}
		}
	}
	if !found {
		for _, s := range sets {
			t.Logf("got %s support=%d conf=%.2f", s.Key(), s.Support, s.Confidence)
		}
		t.Fatal("3-chain not recovered")
	}
}

func TestMineExcludesUnrelatedEvent(t *testing.T) {
	trains := chainTrains(40, 6, 10)
	sets := Mine(trains, seedsFor(trains), DefaultConfig(50000))
	for _, s := range sets {
		for _, it := range s.Items {
			if it.Event == 9 {
				t.Errorf("unrelated event 9 appears in %s", s.Key())
			}
		}
	}
}

func TestMineMaximalSuppressesSubChains(t *testing.T) {
	trains := chainTrains(40, 6, 10)
	sets := Mine(trains, seedsFor(trains), DefaultConfig(50000))
	for _, s := range sets {
		if s.Size() == 2 && s.First() == 1 && s.Last().Event == 2 {
			t.Errorf("sub-chain %s survived maximality filter", s.Key())
		}
	}
}

func TestMineMinSupport(t *testing.T) {
	trains := chainTrains(2, 6, 10) // only two occurrences
	cfg := DefaultConfig(50000)
	cfg.MinSupport = 3
	sets := Mine(trains, seedsFor(trains), cfg)
	if len(sets) != 0 {
		t.Errorf("low-support patterns mined: %d", len(sets))
	}
}

func TestMineEmptyInputs(t *testing.T) {
	cfg := DefaultConfig(1000)
	if sets := Mine(sig.SpikeTrains{}, nil, cfg); len(sets) != 0 {
		t.Error("mining nothing should yield nothing")
	}
}

func TestItemsetAccessors(t *testing.T) {
	s := Itemset{Items: []Item{{Event: 4, Delay: 0}, {Event: 7, Delay: 5}, {Event: 2, Delay: 9}}}
	if s.Size() != 3 || s.Span() != 9 || s.First() != 4 {
		t.Errorf("accessors wrong: size=%d span=%d first=%d", s.Size(), s.Span(), s.First())
	}
	if s.Last().Event != 2 {
		t.Errorf("Last = %+v", s.Last())
	}
	if s.Key() != "4@0|7@5|2@9" {
		t.Errorf("Key = %q", s.Key())
	}
}

func TestMergeReanchorsDelays(t *testing.T) {
	a := Itemset{Items: []Item{{Event: 1, Delay: 0}, {Event: 2, Delay: 5}}}
	b := Itemset{Items: []Item{{Event: 1, Delay: 0}, {Event: 3, Delay: 2}}}
	items, ok := merge(a, b)
	if !ok {
		t.Fatal("merge failed")
	}
	if items[0].Delay != 0 {
		t.Errorf("first delay = %d, want 0", items[0].Delay)
	}
	if len(items) != 3 {
		t.Fatalf("merged size = %d", len(items))
	}
	// Order: 1@0, 3@2, 2@5.
	if items[1].Event != 3 || items[1].Delay != 2 || items[2].Event != 2 || items[2].Delay != 5 {
		t.Errorf("merged items = %+v", items)
	}
}

func TestMergeRejectsSameLastEvent(t *testing.T) {
	a := Itemset{Items: []Item{{Event: 1, Delay: 0}, {Event: 2, Delay: 5}}}
	b := Itemset{Items: []Item{{Event: 1, Delay: 0}, {Event: 2, Delay: 7}}}
	if _, ok := merge(a, b); ok {
		t.Error("merge of same last event should fail")
	}
}

func TestSubPattern(t *testing.T) {
	super := Itemset{Items: []Item{{1, 0}, {2, 6}, {3, 10}}}
	sub := Itemset{Items: []Item{{2, 0}, {3, 4}}} // 2 then 3, 4 apart
	if !subPattern(&sub, &super, 1) {
		t.Error("shifted sub-chain not recognised")
	}
	other := Itemset{Items: []Item{{2, 0}, {3, 8}}} // wrong relative delay
	if subPattern(&other, &super, 1) {
		t.Error("wrong-delay chain accepted as sub-pattern")
	}
	bigger := Itemset{Items: []Item{{1, 0}, {2, 6}, {3, 10}, {4, 12}}}
	if subPattern(&bigger, &super, 1) {
		t.Error("larger pattern cannot be a sub-pattern")
	}
}

func TestSignificanceRejectsCoincidence(t *testing.T) {
	// Two dense unrelated trains: almost any delay matches sometimes, but
	// matches at trigger times are no more common than at probe times.
	rng := rand.New(rand.NewSource(72))
	var s1, s2 []int
	last1, last2 := 0, 0
	for i := 0; i < 300; i++ {
		last1 += 1 + rng.Intn(20)
		last2 += 1 + rng.Intn(20)
		s1 = append(s1, last1)
		s2 = append(s2, last2)
	}
	trains := sig.SpikeTrains{1: s1, 2: s2}
	cfg := DefaultConfig(last1 + 100)
	cfg.MinConfidence = 0 // let support pass; significance must reject
	items := []Item{{Event: 1, Delay: 0}, {Event: 2, Delay: 5}}
	if s, ok := score(trains, sig.IndexTrains(trains), items, cfg); ok {
		t.Errorf("coincidental pattern accepted: support=%d conf=%.2f p=%.4f",
			s.Support, s.Confidence, s.PValue)
	}
}

func TestMineDeterministic(t *testing.T) {
	trains := chainTrains(30, 4, 9)
	seeds := seedsFor(trains)
	cfg := DefaultConfig(40000)
	a := Mine(trains, seeds, cfg)
	b := Mine(trains, seeds, cfg)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() || a[i].Support != b[i].Support {
			t.Fatalf("itemset %d differs: %s vs %s", i, a[i].Key(), b[i].Key())
		}
	}
}

func TestLongChainRecovered(t *testing.T) {
	// A 5-event chain with distinct gaps.
	rng := rand.New(rand.NewSource(73))
	delays := []int{0, 3, 7, 12, 20}
	trains := sig.SpikeTrains{}
	for ev, d := range delays {
		var s []int
		for i := 0; i < 35; i++ {
			s = append(s, i*1000+d+rng.Intn(2))
		}
		trains[ev] = s
	}
	cfg := DefaultConfig(40000)
	sets := Mine(trains, seedsFor(trains), cfg)
	best := 0
	for _, s := range sets {
		if s.Size() > best {
			best = s.Size()
		}
	}
	if best < 5 {
		t.Errorf("longest chain = %d, want 5", best)
	}
}
