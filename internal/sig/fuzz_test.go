package sig

import (
	"sort"
	"testing"
)

// fuzzTrains decodes fuzz bytes into a small set of sorted spike trains:
// byte pairs are (event, time-delta), so simultaneous spikes across events
// (delta 0) and dense bursts are both reachable. Consecutive duplicates
// within a train are dropped, matching how training builds occurrence
// trains.
func fuzzTrains(data []byte) (SpikeTrains, []int) {
	const maxEvents = 5
	trains := make(SpikeTrains)
	t := 0
	for i := 0; i+1 < len(data) && i < 400; i += 2 {
		t += int(data[i+1] % 8)
		e := int(data[i] % maxEvents)
		tr := trains[e]
		if len(tr) == 0 || tr[len(tr)-1] != t {
			trains[e] = append(tr, t)
		}
	}
	ids := make([]int, 0, len(trains))
	for id := range trains {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return trains, ids
}

// refPairCounts brute-forces the quantity both sweeps approximate: for each
// ordered pair of distinct dense indices (a, b), the number of spike pairs
// with 0 <= t_b - t_a <= maxLag. Simultaneous spikes count toward both
// orders, exactly as the sweeps' delay-0 double count does.
func refPairCounts(trains SpikeTrains, ids []int, maxLag int) map[[2]int32]int {
	ref := make(map[[2]int32]int)
	for ai, a := range ids {
		for bi, b := range ids {
			if ai == bi {
				continue
			}
			n := 0
			for _, ta := range trains[a] {
				for _, tb := range trains[b] {
					if d := tb - ta; d >= 0 && d <= maxLag {
						n++
					}
				}
			}
			if n > 0 {
				ref[[2]int32{int32(ai), int32(bi)}] = n
			}
		}
	}
	return ref
}

// FuzzPrefilterPairs checks the prefilter's conservativeness invariants on
// arbitrary spike layouts: the windowed sweep's counts equal the frozen
// exactSweep's cell for cell and a brute-force reference, the block sweep's
// counts upper-bound it, and prefilterPairs — with either sweep forced —
// never prunes a pair whose true co-occurrence count reaches MinCount: the
// property that makes the pruned AllPairs scan identical to the blind E^2
// enumeration.
func FuzzPrefilterPairs(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 3, 0, 0, 1, 1, 2, 0, 3, 7, 4, 1}, uint8(6), uint8(3))
	f.Add([]byte{1, 0, 2, 0, 3, 0, 4, 0, 0, 0}, uint8(0), uint8(1))
	f.Add([]byte{0, 7, 1, 7, 0, 7, 1, 7, 0, 7, 1, 7}, uint8(31), uint8(2))
	f.Add([]byte{}, uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, lagB, minB uint8) {
		trains, ids := fuzzTrains(data)
		if len(ids) < 2 {
			return
		}
		maxLag := int(lagB % 32)
		minCount := int(minB%6) + 1
		ref := refPairCounts(trains, ids, maxLag)
		tl := mergeTimeline(trains, ids)

		exact, frozen := newPairCounter(len(ids)), newPairCounter(len(ids))
		windowSweep(tl, maxLag, exact)
		exactSweep(tl, maxLag, frozen)
		sameDenseCounts(t, exact, frozen, "windowSweep")
		block := newPairCounter(len(ids))
		blockSweep(tl, maxLag, len(ids), block)
		for ai := range ids {
			for bi := range ids {
				if ai == bi {
					continue
				}
				a, b := int32(ai), int32(bi)
				want := ref[[2]int32{a, b}]
				if got := int(exact.get(a, b)); got != want {
					t.Fatalf("windowSweep(%d,%d) = %d, brute force = %d", ai, bi, got, want)
				}
				if got := int(block.get(a, b)); got < want {
					t.Fatalf("blockSweep(%d,%d) = %d undercounts brute force %d", ai, bi, got, want)
				}
			}
		}

		for _, budget := range []int{exactSweepBudget, 0} { // the windowed sweep, then the block sweep
			cands := prefilterPairs(trains, ids, CrossCorrConfig{MaxLag: maxLag, MinCount: minCount}, budget)
			set := make(map[[2]int32]bool, len(cands))
			for _, c := range cands {
				set[c] = true
			}
			for pair, n := range ref {
				if n >= minCount && !set[pair] {
					t.Fatalf("prefilterPairs (budget %d) pruned (%d,%d) with %d >= MinCount %d co-occurrences",
						budget, pair[0], pair[1], n, minCount)
				}
			}
		}
	})
}
