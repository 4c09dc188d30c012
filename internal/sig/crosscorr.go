package sig

import (
	"runtime"
	"sort"
	"sync"
)

// PairCorrelation records that outliers on event A tend to be followed,
// Delay samples later, by outliers on event B.
type PairCorrelation struct {
	A, B  int     // event ids
	Delay int     // samples from A to B (>= 0)
	Count int     // co-occurrence count at the chosen delay
	Score float64 // normalised cross-correlation in [0, 1]
}

// CrossCorrConfig tunes the pair-correlation search.
type CrossCorrConfig struct {
	MaxLag   int     // largest delay considered, in samples
	MinCount int     // minimum co-occurrences for a pair to be kept
	MinScore float64 // minimum normalised score for a pair to be kept
	// Tolerance widens the co-occurrence match: an outlier on B within
	// +/-Tolerance samples of the nominal delay still counts. Sampling
	// jitter makes exact alignment too strict.
	Tolerance int
	// Horizon is the total number of samples in the analysed window. When
	// set, the directional-confidence acceptance path additionally
	// requires a lift of at least MinLift over the random co-occurrence
	// rate, killing spurious long-lag pairs whose wide matching windows
	// would otherwise hit dense trains by chance.
	Horizon int
	// MinLift is the confidence-over-random factor required (default 4).
	MinLift float64
	// SymmetricOnly restricts acceptance to the classic normalised
	// cross-correlation, dropping the directional-confidence path. The
	// data-mining baseline uses it: association mining demands frequent
	// symmetric co-occurrence, which is exactly why it misses
	// rare-precursor correlations the signal view keeps.
	SymmetricOnly bool
}

// DefaultCrossCorrConfig returns the settings used in the experiments: the
// paper reports correlation delays from seconds to above an hour, so the
// lag window is one hour of samples.
func DefaultCrossCorrConfig() CrossCorrConfig {
	return CrossCorrConfig{MaxLag: 360, MinCount: 3, MinScore: 0.35, Tolerance: 1}
}

// DelayTolerance returns the matching slack for a nominal delay: at least
// base samples, growing to a quarter of the delay. Cascade gaps jitter
// multiplicatively in real systems (a 25-minute service action varies by
// minutes, a 20-second one by seconds), so every stage that matches delays
// — seeding, mining, location replay, the online engine — uses this same
// relative rule.
//
//elsa:hotpath
func DelayTolerance(delay, base int) int {
	if base < 0 {
		base = 0
	}
	if t := delay / 4; t > base {
		return t
	}
	return base
}

// CrossCorrelate finds the best delay in [0, MaxLag] from spike train a to
// spike train b (sorted sample indices). It returns false when no delay
// meets the thresholds. It is a convenience wrapper over the
// zero-allocation Scratch kernel; callers scoring many pairs should hold
// a Scratch and call its method directly.
func CrossCorrelate(a, b []int, cfg CrossCorrConfig) (delay, count int, score float64, ok bool) {
	var s Scratch
	return s.CrossCorrelate(a, b, cfg)
}

// liftOK checks the confidence path's enrichment requirement.
//
//elsa:hotpath
func liftOK(conf float64, lag, nb int, cfg CrossCorrConfig) bool {
	if cfg.Horizon <= 0 {
		return true
	}
	minLift := cfg.MinLift
	if minLift <= 0 {
		minLift = 4
	}
	width := float64(2*DelayTolerance(lag, cfg.Tolerance) + 1)
	random := width * float64(nb) / float64(cfg.Horizon)
	return conf >= minLift*random
}

// SpikeTrains maps event id to its sorted outlier sample indices.
type SpikeTrains map[int][]int

// AllPairs cross-correlates the spike trains and returns the pairs that
// pass the thresholds sorted by (A, B). Self-pairs are skipped. The
// zero-delay case is kept in only one direction (smaller event id first)
// to avoid duplicate simultaneous pairs.
//
// Instead of blindly enumerating every ordered pair (E^2 kernel calls), a
// one-pass sliding-window prefilter over the merged spike timeline feeds
// the kernel only the pairs whose total co-occurrence count can meet
// MinCount; the result is identical to the full enumeration.
func AllPairs(trains SpikeTrains, cfg CrossCorrConfig) []PairCorrelation {
	out, _ := AllPairsStats(trains, cfg)
	return out
}

// AllPairsStats is AllPairs plus a report of how much of the pair space
// the prefilter pruned versus scored.
func AllPairsStats(trains SpikeTrains, cfg CrossCorrConfig) ([]PairCorrelation, PairStats) {
	return allPairsStats(trains, cfg, kernelAuto, exactSweepBudget)
}

// allPairsStats is AllPairsStats with every worker's histogram kernel
// forced unless force is kernelAuto, and the prefilter's sweep picked
// against budget; only the in-package tests pass anything else.
func allPairsStats(trains SpikeTrains, cfg CrossCorrConfig, force kernelKind, budget int) ([]PairCorrelation, PairStats) {
	ids := make([]int, 0, len(trains))
	for id := range trains {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	stats := PairStats{Events: len(ids), Candidates: len(ids) * (len(ids) - 1)}
	cands := prefilterPairs(trains, ids, cfg, budget)
	stats.Scored = len(cands)
	if len(cands) == 0 {
		return nil, stats
	}

	jobs := make(chan [2]int32, 256)
	var mu sync.Mutex
	var out []PairCorrelation
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch Scratch
			local := make([]PairCorrelation, 0, 64)
			for j := range jobs {
				a, b := ids[j[0]], ids[j[1]]
				delay, count, score, ok := scratch.crossCorrelate(trains[a], trains[b], cfg, force)
				if !ok {
					continue
				}
				if delay == 0 && a > b {
					continue // keep simultaneous pairs once
				}
				local = append(local, PairCorrelation{A: a, B: b, Delay: delay, Count: count, Score: score})
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	for _, c := range cands {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	stats.Kept = len(out)
	return out, stats
}
