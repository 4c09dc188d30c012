package correlate

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/elsa-hpc/elsa/internal/gradual"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/sig"
)

// RefreshStats reports what one incremental refresh round did.
type RefreshStats struct {
	// Dirty is the number of candidate pairs the accumulator reported as
	// changed since the previous refresh; Scored is how many of them the
	// cross-correlation kernel actually re-ran (the rest lost their
	// trains to horizon trimming).
	Dirty  int
	Scored int
	// Seeds is the size of the accepted seed-pair set after the round.
	Seeds int
	// Remined is true when the seed set changed and the full miner ran;
	// false means the cheap rescore fast path sufficed.
	Remined bool
	Chains  int
	// Pairs is the cumulative deduplicated pair-space telemetry across
	// all refresh rounds (see sig.PairTelemetry).
	Pairs    sig.PairStats
	Duration time.Duration
}

// remineEvery rate-limits the full miner: when the seed structure keeps
// churning (marginal pairs flapping across the score threshold as live
// counters grow), at most one refresh round in remineEvery re-runs the
// miner; the rounds between re-score the existing chains against the
// fresh trains. Structural changes therefore reach the chain set within
// remineEvery rounds — bounded staleness in exchange for a steady-state
// refresh that stays far below the batch retraining cost. A quiet
// structure pays nothing: the counter only defers a mine when one is
// actually pending.
const remineEvery = 16

// refresher is the incremental retraining state a model carries between
// Refresh calls. It lives on an unexported Model field so the direct
// JSON serialisation of Model skips it; snapshots carry it explicitly
// via RefreshState.
type refresher struct {
	// seeds holds the currently accepted seed pairs keyed by (A, B).
	seeds map[[2]int]sig.PairCorrelation
	// mined is the seed-set signature at the last full mine; while it
	// matches the current seeds the chain structure cannot have changed
	// and Rescore suffices.
	mined string
	// sinceMine counts refresh rounds since the last full mine, gating
	// the remineEvery rate limit.
	sinceMine int
	tel       *sig.PairTelemetry
}

// tuneForMode derives the per-mode cross-correlation and mining
// parameters Train and Refresh share, so the incremental path can never
// drift from the batch path's Table III method definitions.
func tuneForMode(mode Mode, horizon int, cfg Config) (sig.CrossCorrConfig, gradual.Config) {
	cc := cfg.CrossCorr
	cc.Horizon = horizon
	mining := cfg.Mining
	mining.Horizon = horizon
	if mode == DataMiningOnly {
		// Fixed small window, stricter support, raw trains, and the
		// classic symmetric co-occurrence criterion only.
		cc.MaxLag = 6 // the classic fixed 60 s window at 10 s sampling
		cc.SymmetricOnly = true
		mining.MinSupport *= 2
		mining.MinConfidence = 0.5
	}
	return cc, mining
}

// AccumConfigFor derives the accumulator arming for a mode: the same
// window and candidate threshold the mode's batch prefilter gates on,
// so the live counters admit exactly the candidate set AllPairs would.
func AccumConfigFor(mode Mode, cfg Config) sig.AccumConfig {
	cc, _ := tuneForMode(mode, 0, cfg)
	return sig.AccumConfig{MaxLag: cc.MaxLag, MinCount: cc.MinCount}
}

// Refresh rebuilds the model's chains from the accumulator's live
// counters without replaying the horizon. When the accumulator's horizon
// is capped (the monitor caps it at the training span) the trains scored
// here are a sliding window of the stream, which is what lets a chain
// whose events stopped co-occurring fall out. Only pairs whose co-occurrence
// counters moved since the last refresh are re-scored, by sig.ScorePairs,
// the scorer training uses; when the surviving seed set is unchanged the
// existing chains are
// merely re-scored against the fresh trains (the fast path), otherwise
// the miner re-runs over the new seeds — rate-limited to one full mine
// per remineEvery rounds, so threshold-flapping pairs cannot pin every
// refresh at the miner's cost (see remineEvery for the staleness bound).
func (m *Model) Refresh(acc *sig.Accumulator, cfg Config) RefreshStats {
	mark := now()
	if cfg.Step <= 0 {
		cfg.Step = sig.DefaultStep
	}
	horizon := acc.LastTick() + 1
	cc, mining := tuneForMode(m.Mode, horizon, cfg)

	if m.ref == nil {
		m.ref = &refresher{
			seeds: make(map[[2]int]sig.PairCorrelation),
			tel:   sig.NewPairTelemetry(),
		}
	}
	r := m.ref
	trains := acc.Trains()
	r.tel.BeginRound(acc.Events())

	// Fold the accumulator's severity view into the model before chains
	// are rebuilt: predictiveness depends on it.
	for id, es := range acc.EventStats() {
		if sev := logs.Severity(es.MaxSeverity); sev > m.Severity[id] {
			m.Severity[id] = sev
		}
	}

	dirty := acc.DrainDirty()
	pairs := make([][2]int, len(dirty))
	for i, d := range dirty {
		pairs[i] = [2]int{d.A, d.B}
	}
	scored, kept := sig.ScorePairs(trains, pairs, cc)
	st := RefreshStats{Dirty: len(dirty)}
	for i, p := range pairs {
		if len(trains[p[0]]) == 0 || len(trains[p[1]]) == 0 {
			// Horizon trimming emptied a train: the pair cannot score.
			delete(r.seeds, p)
			r.tel.NoteKept(p[0], p[1], false)
			continue
		}
		st.Scored++
		r.tel.NoteScored(p[0], p[1])
		if kept[i] {
			r.seeds[p] = scored[i]
		} else {
			delete(r.seeds, p)
		}
		r.tel.NoteKept(p[0], p[1], kept[i])
	}

	seeds := r.seedList()
	signature := seedSignature(seeds)
	r.sinceMine++
	if signature != r.mined && (r.mined == "" || r.sinceMine >= remineEvery) {
		st.Remined = true
		m.mine(trains, seeds, mining)
		r.mined = signature
		r.sinceMine = 0
	} else {
		// Seed structure unchanged — or changed within the remineEvery
		// rate limit: the candidate tree keeps its shape for now, so
		// re-score the live chain set against the fresh trains. A chain
		// whose support collapsed falls out here; pending structural
		// additions land at the next full mine.
		sets := make([]gradual.Itemset, 0, len(m.Chains))
		for _, c := range m.Chains {
			sets = append(sets, c.Itemset)
		}
		m.setChains(gradual.Rescore(trains, sets, mining))
	}

	m.TrainEnd = m.TrainStart.Add(time.Duration(horizon) * cfg.Step)
	st.Seeds = len(seeds)
	st.Chains = len(m.Chains)
	st.Pairs = r.tel.Stats()
	m.Stats.Pairs = st.Pairs
	st.Duration = now().Sub(mark)
	return st
}

// seedList returns the accepted seeds in the batch scan's deterministic
// (A, B) order.
func (r *refresher) seedList() []sig.PairCorrelation {
	out := make([]sig.PairCorrelation, 0, len(r.seeds))
	for _, p := range r.seeds {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// seedSignature fingerprints the structural part of a seed set: the
// (A, B, Delay) triples the miner's candidate tree is built from. Count
// and Score feed thresholds already applied, so two sets with equal
// signatures mine identical chain structures.
func seedSignature(seeds []sig.PairCorrelation) string {
	if len(seeds) == 0 {
		return ""
	}
	var b strings.Builder
	for _, s := range seeds {
		fmt.Fprintf(&b, "%d>%d@%d|", s.A, s.B, s.Delay)
	}
	return b.String()
}

// RefreshState is the serialisable form of the incremental retraining
// state, riding the monitor snapshot envelope.
type RefreshState struct {
	Seeds     []sig.PairCorrelation  `json:"seeds,omitempty"`
	Mined     string                 `json:"mined,omitempty"`
	SinceMine int                    `json:"since_mine,omitempty"`
	Telemetry sig.PairTelemetryState `json:"telemetry"`
}

// RefreshState snapshots the refresher, or nil if the model has never
// been refreshed (the envelope omits it).
func (m *Model) RefreshState() *RefreshState {
	if m.ref == nil {
		return nil
	}
	return &RefreshState{
		Seeds:     m.ref.seedList(),
		Mined:     m.ref.mined,
		SinceMine: m.ref.sinceMine,
		Telemetry: m.ref.tel.State(),
	}
}

// RestoreRefreshState rebuilds the refresher from a snapshot; a nil
// state resets the model to the never-refreshed condition.
func (m *Model) RestoreRefreshState(st *RefreshState) {
	if st == nil {
		m.ref = nil
		return
	}
	r := &refresher{
		seeds:     make(map[[2]int]sig.PairCorrelation, len(st.Seeds)),
		mined:     st.Mined,
		sinceMine: st.SinceMine,
		tel:       sig.RestorePairTelemetry(st.Telemetry),
	}
	for _, p := range st.Seeds {
		r.seeds[[2]int{p.A, p.B}] = p
	}
	m.ref = r
}
