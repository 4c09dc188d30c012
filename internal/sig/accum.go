package sig

import (
	"fmt"
	"sort"
)

// Accumulator maintains, incrementally as sampling ticks close, the same
// statistics the batch training fast path computes in one pass over the
// horizon: per-event outlier spike trains, ordered-pair co-occurrence
// counters within MaxLag (the prefilter's pruning currency), and
// per-event rate/severity statistics. A monitor that feeds it from the
// pipeline's tick tap can rebuild its correlation chains from the live
// counters (Model.Refresh) without replaying the horizon.
//
// The pair counters are the batch prefilter's exact ones, from the same
// coWindow fed the same merged timeline a tick at a time: a spike of event
// e pairs with every earlier spike within MaxLag (same-event pairs skipped,
// simultaneous spikes counted toward both orders). They are exact for the
// stream's whole life — there is no second regime — so a count is a plain
// total that can be summed with another accumulator's, and a pair is dirty
// only when a spike moved it: a drain with no new spike is empty.
//
// Ticks must be observed in strictly increasing order (the sampler
// closes them that way); an Accumulator is not safe for concurrent use.
//
//elsa:snapshot
type Accumulator struct {
	//elsa:ephemeral configuration is a constructor argument, not stream state
	cfg AccumConfig

	trains SpikeTrains // event id -> sorted outlier ticks
	// pairs holds, per ordered pair, the co-occurrence count and whether it
	// changed since the last drain.
	pairs  *pairCounter
	events eventTable // per-event statistics
	win    coWindow   // the spikes within MaxLag of the newest tick

	lastTick int
	ticks    int

	// lastTrim is the tick of the last horizon trim. It rides the
	// snapshot: a resumed accumulator trims at the ticks the killed one
	// would have, so the trains a Refresh scores are the same.
	lastTrim int
}

// accEvent is one event type's slot in the statistics table.
type accEvent struct {
	EventStat
	seen bool // noted at least once; a slot the table merely grew over is not
}

// eventTable holds the per-event statistics slots.
type eventTable struct{ idTable[accEvent] }

// get returns the id's slot, initialised on first sight. The pointer is
// valid until the next call.
//
//elsa:hotpath
func (t *eventTable) get(id int) *accEvent {
	ev := t.at(id)
	if !ev.seen {
		ev.seen, ev.LastTick = true, -1
	}
	return ev
}

// each calls fn for every event noted so far.
func (t *eventTable) each(fn func(id int, es EventStat)) {
	for id := range t.dense {
		if t.dense[id].seen {
			fn(id, t.dense[id].EventStat)
		}
	}
	for id, ev := range t.far {
		fn(id, ev.EventStat)
	}
}

// EventStat is one event type's running statistics: how many ticks it
// spiked on, how many records it produced, when it was last seen and the
// worst severity observed (as a plain int so the package stays free of
// the logs dependency; callers map it back).
type EventStat struct {
	Spikes      int `json:"spikes"`
	Count       int `json:"count"`
	LastTick    int `json:"last_tick"`
	MaxSeverity int `json:"max_severity,omitempty"`
}

// AccumConfig arms the accumulator: the window and threshold of the batch
// prefilter it mirrors, and how much history the spike trains keep. There
// is no cost knob — a spike costs one counter update per distinct event
// inside the window, whatever the stream has carried.
type AccumConfig struct {
	// MaxLag is the co-occurrence window in ticks; it must match the
	// CrossCorrConfig the refresh path scores candidates with.
	MaxLag int
	// MinCount is the candidate emission threshold (CrossCorrConfig.MinCount).
	MinCount int
	// HorizonCap > 0 trims spike trains to the most recent HorizonCap
	// ticks (amortised): refresh then scores pairs over a sliding recent
	// window while the lifetime counters keep gating candidacy.
	HorizonCap int
}

// DefaultAccumConfig matches the experiments' cross-correlation settings.
func DefaultAccumConfig() AccumConfig {
	cc := DefaultCrossCorrConfig()
	return AccumConfig{MaxLag: cc.MaxLag, MinCount: cc.MinCount}
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator(cfg AccumConfig) *Accumulator {
	if cfg.MaxLag < 0 {
		cfg.MaxLag = 0
	}
	if cfg.MinCount < 1 {
		cfg.MinCount = 1
	}
	return &Accumulator{
		cfg:    cfg,
		trains: make(SpikeTrains),
		pairs:  newPairCounter(0),
		events: eventTable{newIDTable[accEvent]()},
		win:    newCoWindow(cfg.MaxLag),
	}
}

// NoteSeverity records the severity of one record of the event (as an
// int; callers pass their severity enum's value). The per-event maximum
// feeds the refresh path's predictive-chain elimination.
//
//elsa:hotpath
func (ac *Accumulator) NoteSeverity(id, sev int) {
	if es := ac.events.get(id); sev > es.MaxSeverity {
		es.MaxSeverity = sev
	}
}

// ObserveTick folds one closed sampling tick into the statistics: counts
// is the tick's per-event record counts (rate statistics), outliers the
// tick's outlier event ids in ascending order (the pipeline's sorted hit
// set). Ticks must arrive in strictly increasing order; a stale tick is
// ignored.
func (ac *Accumulator) ObserveTick(tick int, counts Counts, outliers []int) {
	if ac.ticks > 0 && tick <= ac.lastTick {
		return
	}
	ac.ticks++
	ac.lastTick = tick
	for _, c := range counts.seen {
		es := ac.events.get(c.ID)
		es.Count += c.N
		es.LastTick = tick
	}
	if len(outliers) > 0 {
		ac.win.expire(tick)
	}
	for _, e := range outliers {
		tr := ac.trains[e]
		if len(tr) > 0 && tr[len(tr)-1] >= tick {
			continue // duplicate within the tick's hit set
		}
		ac.trains[e] = append(tr, tick)
		ac.events.get(e).Spikes++
		ac.win.add(tick, e, ac.pairs)
	}
	ac.maybeTrim()
}

// maybeTrim drops spikes older than the horizon cap, amortised to one
// pass per quarter-cap of tick progress. Counters are lifetime totals
// and stay untouched.
func (ac *Accumulator) maybeTrim() {
	hc := ac.cfg.HorizonCap
	if hc <= 0 || ac.lastTick-ac.lastTrim < hc/4+1 {
		return
	}
	ac.lastTrim = ac.lastTick
	cut := ac.lastTick - hc
	for id, tr := range ac.trains {
		i := sort.SearchInts(tr, cut+1)
		if i == 0 {
			continue
		}
		if i == len(tr) {
			delete(ac.trains, id)
			continue
		}
		ac.trains[id] = append(tr[:0], tr[i:]...)
	}
}

// Ticks returns how many closed ticks have been observed.
func (ac *Accumulator) Ticks() int { return ac.ticks }

// LastTick returns the newest closed tick index (-1 before any tick).
func (ac *Accumulator) LastTick() int {
	if ac.ticks == 0 {
		return -1
	}
	return ac.lastTick
}

// Exact reports that the pair counters are exact. They always are; the
// method stays for the benchmark's accum.exact_regime_share row.
func (ac *Accumulator) Exact() bool { return true }

// Events returns the number of event types with at least one spike.
func (ac *Accumulator) Events() int { return len(ac.trains) }

// Trains returns the live spike-train view. The map and slices are the
// accumulator's own: valid to read until the next ObserveTick, never to
// mutate.
func (ac *Accumulator) Trains() SpikeTrains { return ac.trains }

// EventStats returns a copy of the per-event statistics.
func (ac *Accumulator) EventStats() map[int]EventStat {
	out := make(map[int]EventStat)
	ac.events.each(func(id int, es EventStat) { out[id] = es })
	return out
}

// PairCount returns the accumulated count for the ordered pair.
func (ac *Accumulator) PairCount(a, b int) int {
	return int(ac.pairs.get(int32(a), int32(b)))
}

// PairCand is one candidate pair emission: an ordered event pair whose
// accumulated co-occurrence count reached MinCount.
type PairCand struct {
	A, B  int
	Count int
}

// Candidates returns every pair at or above MinCount, sorted by (A, B).
func (ac *Accumulator) Candidates() []PairCand { return ac.emit(false) }

// DrainDirty returns the candidates whose count changed since the last
// drain, sorted by (A, B), and clears the dirty set. Pairs still below
// MinCount are dropped from the drain but re-dirty on their next
// increment, so crossing the threshold always re-surfaces them. This is
// the delta a refresh needs to re-score.
func (ac *Accumulator) DrainDirty() []PairCand {
	out := ac.emit(true)
	ac.pairs.clearDirty()
	return out
}

// emit collects the pairs >= MinCount — only the dirty ones when dirty is
// set — in the counter's (A, B) order.
func (ac *Accumulator) emit(dirty bool) []PairCand {
	need := int32(ac.cfg.MinCount)
	n := 0
	ac.pairs.each(dirty, func(_ uint64, v int32) {
		if v >= need {
			n++
		}
	})
	// Counted first and allocated once: a refresh drains tens of thousands
	// of pairs, and growing the slice would discard as much again.
	out := make([]PairCand, 0, n)
	ac.pairs.each(dirty, func(k uint64, v int32) {
		if v >= need {
			out = append(out, PairCand{A: int(k >> 32), B: int(uint32(k)), Count: int(v)})
		}
	})
	return out
}

// AccumState is the serialisable form of an Accumulator, riding the
// session snapshot envelope so a killed monitor resumes its incremental
// statistics mid-stream, bit for bit. Every field is either a lifetime
// total or the window behind LastTick, whatever the stream carried: there
// is no regime to check before summing the Counts of per-shard states.
//
//elsa:snapshot-envelope
type AccumState struct {
	MaxLag   int `json:"max_lag"`
	LastTick int `json:"last_tick"`
	TickSeen int `json:"ticks"`

	Trains map[int][]int     `json:"trains,omitempty"`
	Counts map[uint64]int32  `json:"counts,omitempty"`
	Dirty  []uint64          `json:"dirty,omitempty"`
	Events map[int]EventStat `json:"events,omitempty"`
	Ring   []accSpike        `json:"ring,omitempty"`

	// LastTrim is the horizon trim cursor: zero until the first trim.
	LastTrim int `json:"last_trim,omitempty"`
}

// State snapshots the accumulator. The snapshot is a deep copy with the
// dirty set in the counter's sorted order, so identical accumulator
// states serialise to identical bytes.
//
//elsa:snapshotter encode
func (ac *Accumulator) State() *AccumState {
	st := &AccumState{
		MaxLag:   ac.cfg.MaxLag,
		LastTick: ac.lastTick,
		TickSeen: ac.ticks,
		LastTrim: ac.lastTrim,
	}
	if len(ac.trains) > 0 {
		st.Trains = make(map[int][]int, len(ac.trains))
		for id, tr := range ac.trains {
			st.Trains[id] = append([]int(nil), tr...)
		}
	}
	ac.pairs.each(false, func(k uint64, v int32) {
		if st.Counts == nil {
			st.Counts = make(map[uint64]int32)
		}
		st.Counts[k] = v
	})
	ac.pairs.each(true, func(k uint64, _ int32) { st.Dirty = append(st.Dirty, k) })
	ac.events.each(func(id int, es EventStat) {
		if st.Events == nil {
			st.Events = make(map[int]EventStat)
		}
		st.Events[id] = es
	})
	if live := ac.win.ring[ac.win.head:]; len(live) > 0 {
		st.Ring = append([]accSpike(nil), live...)
	}
	return st
}

// RestoreAccumulator rebuilds an accumulator from a snapshot. The
// configured window must match the snapshot's — counters accumulated
// under a different MaxLag would silently mean something else. A snapshot
// is bytes this process did not necessarily write: anything State could
// not have produced is an error, and no id in it can index outside a
// table (ids past the dense bound, or negative, take the map paths).
//
//elsa:snapshotter decode
func RestoreAccumulator(cfg AccumConfig, st *AccumState) (*Accumulator, error) {
	if st == nil {
		return nil, fmt.Errorf("sig: nil accumulator state")
	}
	ac := NewAccumulator(cfg)
	if st.MaxLag != ac.cfg.MaxLag {
		return nil, fmt.Errorf("sig: accumulator snapshot window MaxLag=%d, config wants %d",
			st.MaxLag, ac.cfg.MaxLag)
	}
	if st.TickSeen < 0 {
		return nil, fmt.Errorf("sig: accumulator snapshot tick count %d: negative", st.TickSeen)
	}
	if st.LastTrim < 0 || st.LastTrim > st.LastTick {
		return nil, fmt.Errorf("sig: accumulator snapshot trim cursor %d outside [0, last tick %d]", st.LastTrim, st.LastTick)
	}
	ac.lastTick = st.LastTick
	ac.ticks = st.TickSeen
	ac.lastTrim = st.LastTrim
	for id, tr := range st.Trains {
		if !sort.IntsAreSorted(tr) {
			return nil, fmt.Errorf("sig: accumulator snapshot train %d not sorted", id)
		}
		ac.trains[id] = append([]int(nil), tr...)
	}
	for k, v := range st.Counts {
		if v < 1 || v > counterCap {
			return nil, fmt.Errorf("sig: accumulator snapshot count %d for pair %#x out of range", v, k)
		}
		ac.pairs.add(int32(k>>32), int32(k), v)
	}
	ac.pairs.clearDirty()
	for _, k := range st.Dirty {
		if _, ok := st.Counts[k]; !ok {
			return nil, fmt.Errorf("sig: accumulator snapshot dirty pair %#x has no count", k)
		}
		ac.pairs.mark(int32(k>>32), int32(k))
	}
	for id, es := range st.Events {
		ac.events.get(id).EventStat = es
	}
	ac.win.ring = make([]accSpike, 0, len(st.Ring))
	for i, r := range st.Ring {
		if r.T > st.LastTick || (i > 0 && r.T < st.Ring[i-1].T) {
			return nil, fmt.Errorf("sig: accumulator snapshot ring entry %d at tick %d out of order", i, r.T)
		}
		ac.win.enter(r.T, r.E)
	}
	return ac, nil
}
