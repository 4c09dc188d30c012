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
	scratch   sig.Scratch
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
// counters moved since the last refresh are re-scored by the kernel;
// when the surviving seed set is unchanged the existing chains are
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
	st := RefreshStats{Dirty: len(dirty)}
	for _, d := range dirty {
		a, b := trains[d.A], trains[d.B]
		if len(a) == 0 || len(b) == 0 {
			delete(r.seeds, [2]int{d.A, d.B})
			r.tel.NoteKept(d.A, d.B, false)
			continue
		}
		st.Scored++
		r.tel.NoteScored(d.A, d.B)
		delay, count, score, ok := r.scratch.CrossCorrelate(a, b, cc)
		if ok && delay == 0 && d.A > d.B {
			ok = false // keep simultaneous pairs once, as the batch scan does
		}
		if ok {
			r.seeds[[2]int{d.A, d.B}] = sig.PairCorrelation{
				A: d.A, B: d.B, Delay: delay, Count: count, Score: score,
			}
		} else {
			delete(r.seeds, [2]int{d.A, d.B})
		}
		r.tel.NoteKept(d.A, d.B, ok)
	}

	seeds := r.seedList()
	signature := seedSignature(seeds)
	r.sinceMine++
	if signature != r.mined && (r.mined == "" || r.sinceMine >= remineEvery) {
		st.Remined = true
		m.Chains = m.Chains[:0]
		switch m.Mode {
		case Hybrid, DataMiningOnly:
			for _, s := range gradual.Mine(trains, seeds, mining) {
				m.Chains = append(m.Chains, m.newChain(s))
			}
		case SignalOnly:
			for _, s := range pairItemsets(trains, seeds, mining) {
				m.Chains = append(m.Chains, m.newChain(s))
			}
		}
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
		m.Chains = m.Chains[:0]
		for _, s := range gradual.Rescore(trains, sets, mining) {
			m.Chains = append(m.Chains, m.newChain(s))
		}
	}
	sort.Slice(m.Chains, func(i, j int) bool { return m.Chains[i].Key() < m.Chains[j].Key() })

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
