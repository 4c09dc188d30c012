package sig

import (
	"sort"

	"github.com/elsa-hpc/elsa/internal/par"
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
// meets the thresholds. It is the one-off form of the kernel; callers
// scoring many pairs go through ScorePairs, which recycles its buffers.
func CrossCorrelate(a, b []int, cfg CrossCorrConfig) (delay, count int, score float64, ok bool) {
	var s scratch
	return s.crossCorrelate(a, b, cfg, kernelAuto)
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

// allPairsStats is AllPairsStats with the histogram kernel forced unless
// force is kernelAuto, and the prefilter's sweep picked against budget;
// only the in-package tests pass anything else.
func allPairsStats(trains SpikeTrains, cfg CrossCorrConfig, force kernelKind, budget int) ([]PairCorrelation, PairStats) {
	ids := make([]int, 0, len(trains))
	for id := range trains {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	stats := PairStats{Events: len(ids), Candidates: len(ids) * (len(ids) - 1)}
	cands := prefilterPairs(trains, ids, cfg, budget)
	stats.Scored = len(cands)
	// The prefilter emits dense indices in (a, b) order and ids is sorted,
	// so the pairs, and the kept ones in input order, are in (A, B) order.
	pairs := make([][2]int, len(cands))
	for i, c := range cands {
		pairs[i] = [2]int{ids[c[0]], ids[c[1]]}
	}
	scored, kept := scorePairs(trains, pairs, cfg, force)
	var out []PairCorrelation
	for i, p := range scored {
		if kept[i] {
			out = append(out, p)
		}
	}
	stats.Kept = len(out)
	return out, stats
}

// ScorePairs cross-correlates each ordered event-id pair (A, B) of pairs,
// train A against train B, and returns for every pair, in input order,
// its PairCorrelation and whether it passed the thresholds. A
// simultaneous pair (delay 0) is kept once, smaller event id first. It is
// the one pair scorer: training runs it over the prefilter's candidates
// and a refresh round over the accumulator's dirty pairs. The pairs are
// spread over par.Each workers, each recycling one kernel scratch, and
// every result lands in its input slot, so the output does not depend on
// how many workers ran.
func ScorePairs(trains SpikeTrains, pairs [][2]int, cfg CrossCorrConfig) ([]PairCorrelation, []bool) {
	return scorePairs(trains, pairs, cfg, kernelAuto)
}

// scorePairs is ScorePairs with the histogram kernel forced unless force
// is kernelAuto.
func scorePairs(trains SpikeTrains, pairs [][2]int, cfg CrossCorrConfig, force kernelKind) ([]PairCorrelation, []bool) {
	out := make([]PairCorrelation, len(pairs))
	kept := make([]bool, len(pairs))
	par.Each(len(pairs), func(i int, s *scratch) {
		a, b := pairs[i][0], pairs[i][1]
		delay, count, score, ok := s.crossCorrelate(trains[a], trains[b], cfg, force)
		out[i] = PairCorrelation{A: a, B: b, Delay: delay, Count: count, Score: score}
		kept[i] = ok && !(delay == 0 && a > b)
	})
	return out, kept
}
