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
// The pair counters mirror the batch prefilter exactly. While the total
// co-occurrence mass stays within Budget they equal what exactSweep would
// produce over the merged timeline: a spike of event e pairs with every
// earlier spike within MaxLag (same-event pairs skipped, simultaneous
// spikes counted toward both orders). The accumulator keeps, per event,
// how many of its spikes are inside that window, so a new spike costs one
// counter update per distinct live event, not one per live spike; the
// ring of recent spikes only expires them. Past the budget it degrades to
// the block-bucket upper bound of blockSweep: per-block event counts whose
// adjacent products bound the true totals from above, so candidate
// emission stays conservative — a pair that could reach MinCount is never
// lost.
//
// Ticks must be observed in strictly increasing order (the sampler
// closes them that way); an Accumulator is not safe for concurrent use.
//
//elsa:snapshot
type Accumulator struct {
	//elsa:ephemeral configuration is a constructor argument, not stream state
	cfg AccumConfig

	trains SpikeTrains // event id -> sorted outlier ticks
	// pairs holds, per ordered pair, the co-occurrence count (an upper
	// bound past the budget) and whether it changed since the last drain.
	pairs  *pairCounter
	events eventTable // per-event statistics and window counts

	ring []accSpike // spikes within MaxLag of the newest tick, oldest first
	//elsa:ephemeral ring head offset; State emits only the live entries
	head int
	//elsa:ephemeral derived from ring on restore: the events with a spike inside the ring
	live []int

	lastTick int
	ticks    int
	mass     int64
	exact    bool

	// Block-bucket state, live once the mass budget is blown: per-event
	// spike counts of the previous closed block and the still-open one,
	// over blocks of width MaxLag+1 anchored at tick 0.
	prevBlock, curBlock int
	prev, cur           map[int]int32

	// lastTrim is the tick of the last horizon trim. It rides the
	// snapshot: a resumed accumulator trims at the ticks the killed one
	// would have, so the trains a Refresh scores are the same.
	lastTrim int
}

// accEvent is one event type's slot: its statistics and how many of its
// spikes are inside the ring.
type accEvent struct {
	EventStat
	seen bool // noted at least once; a slot the table merely grew over is not
	//elsa:ephemeral derived from ring on restore: the event's spikes inside the ring
	win int32
}

// eventTable holds the per-event slots: one per id below denseCounterMax,
// indexed directly and grown by doubling (NoteSeverity runs per record),
// and a map entry for any other id.
type eventTable struct {
	dense []accEvent
	out   map[int]*accEvent
}

// at returns the id's slot, created on first sight: the dense slots double
// until they cover an id below the bound, any other id gets a map entry.
// The pointer is valid until the next call.
//
//elsa:hotpath
func (t *eventTable) at(id int) *accEvent {
	if uint(id) >= uint(len(t.dense)) {
		if uint(id) >= denseCounterMax {
			ev := t.out[id]
			if ev == nil {
				ev = &accEvent{EventStat: EventStat{LastTick: -1}, seen: true} //nolint:elsahotpath // once per event id outside the dense bound
				t.out[id] = ev
			}
			return ev
		}
		n := max(len(t.dense), 64)
		for n <= id {
			n *= 2
		}
		t.dense = append(t.dense, make([]accEvent, n-len(t.dense))...) //nolint:elsahotpath // amortized: doubles at most log2(denseCounterMax) times
	}
	ev := &t.dense[id]
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
	for id, ev := range t.out {
		fn(id, ev.EventStat)
	}
}

// accSpike is one ring entry: a spike of event E at tick T.
type accSpike struct {
	T int `json:"t"`
	E int `json:"e"`
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

// AccumConfig tunes the accumulator.
type AccumConfig struct {
	// MaxLag is the co-occurrence window in ticks; it must match the
	// CrossCorrConfig the refresh path scores candidates with.
	MaxLag int
	// MinCount is the candidate emission threshold (CrossCorrConfig.MinCount).
	MinCount int
	// Budget caps the exact streaming sweep's co-occurrence mass before
	// the accumulator degrades to block-bucket upper bounds. <= 0 selects
	// the batch prefilter's exactSweepBudget.
	Budget int
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

// NewAccumulator returns an empty accumulator in the exact regime.
func NewAccumulator(cfg AccumConfig) *Accumulator {
	if cfg.MaxLag < 0 {
		cfg.MaxLag = 0
	}
	if cfg.MinCount < 1 {
		cfg.MinCount = 1
	}
	if cfg.Budget <= 0 {
		cfg.Budget = exactSweepBudget
	}
	return &Accumulator{
		cfg:    cfg,
		trains: make(SpikeTrains),
		pairs:  newPairCounter(0),
		events: eventTable{out: make(map[int]*accEvent)},
		exact:  true,
	}
}

// NoteSeverity records the severity of one record of the event (as an
// int; callers pass their severity enum's value). The per-event maximum
// feeds the refresh path's predictive-chain elimination.
//
//elsa:hotpath
func (ac *Accumulator) NoteSeverity(id, sev int) {
	if es := ac.events.at(id); sev > es.MaxSeverity {
		es.MaxSeverity = sev
	}
}

// ObserveTick folds one closed sampling tick into the statistics: counts
// is the tick's per-event record counts (rate statistics), outliers the
// tick's outlier event ids in ascending order (the pipeline's sorted hit
// set). Ticks must arrive in strictly increasing order; a stale tick is
// ignored.
func (ac *Accumulator) ObserveTick(tick int, counts map[int]int, outliers []int) {
	if ac.ticks > 0 && tick <= ac.lastTick {
		return
	}
	ac.ticks++
	ac.lastTick = tick
	for id, n := range counts {
		es := ac.events.at(id)
		es.Count += n
		es.LastTick = tick
	}
	if len(outliers) > 0 {
		ac.expire(tick)
	}
	for _, e := range outliers {
		tr := ac.trains[e]
		if len(tr) > 0 && tr[len(tr)-1] >= tick {
			continue // duplicate within the tick's hit set
		}
		ac.trains[e] = append(tr, tick)
		ac.events.at(e).Spikes++
		if ac.exact {
			ac.exactAdd(tick, e)
		} else {
			ac.bucketAdd(tick, e)
		}
	}
	ac.maybeTrim()
}

// expire drops the ring entries that fell out of the co-occurrence window
// behind tick, and from the live list the events left without one.
//
//elsa:hotpath
func (ac *Accumulator) expire(tick int) {
	emptied := false
	for ; ac.head < len(ac.ring) && tick-ac.ring[ac.head].T > ac.cfg.MaxLag; ac.head++ {
		ev := ac.events.at(ac.ring[ac.head].E)
		ev.win--
		emptied = emptied || ev.win == 0
	}
	if emptied {
		live := ac.live[:0]
		for _, a := range ac.live {
			if ac.events.at(a).win > 0 {
				live = append(live, a) //nolint:elsahotpath // filters ac.live in place, never grows
			}
		}
		ac.live = live
	}
	if ac.head > 64 && ac.head*2 > len(ac.ring) {
		n := copy(ac.ring, ac.ring[ac.head:])
		ac.ring = ac.ring[:n]
		ac.head = 0
	}
}

// exactAdd counts one new spike of e against the live window, mirroring
// exactSweep over the merged timeline: every live spike precedes it in
// (tick, event) order, so each live event a != e gains its window count
// toward (a, e) — one update however many spikes it has in the ring, and
// the clamp makes the grouping invisible — and a spike of the same tick
// also counts in the reverse order (the kernel's delay-0 bin sees it from
// both sides).
//
//elsa:hotpath
func (ac *Accumulator) exactAdd(tick, e int) {
	b := int32(e)
	for _, a := range ac.live {
		if a != e {
			ac.pairs.add(int32(a), b, ac.events.at(a).win)
		}
	}
	for i := len(ac.ring) - 1; i >= ac.head && ac.ring[i].T == tick; i-- {
		ac.pairs.add(b, int32(ac.ring[i].E), 1) // the ring's tail is this tick's earlier spikes, none of them e's
	}
	ac.mass += int64(len(ac.ring) - ac.head)
	ac.ring = append(ac.ring, accSpike{T: tick, E: e}) //nolint:elsahotpath // amortized: the ring is bounded by the spikes inside one MaxLag window
	ac.enter(e)
	if ac.mass > int64(ac.cfg.Budget) {
		ac.switchToBuckets()
	}
}

// enter accounts one more ring spike of e in the window counts.
//
//elsa:hotpath
func (ac *Accumulator) enter(e int) {
	ev := ac.events.at(e)
	if ev.win == 0 {
		ac.live = append(ac.live, e) //nolint:elsahotpath // amortized: bounded by the distinct events inside one MaxLag window
	}
	ev.win++
}

// switchToBuckets degrades to the block-bucket upper bound: the live
// ring spikes (at most two blocks wide, since the ring spans MaxLag)
// seed the block counts. Pairs among them were already counted exactly,
// so the seeded products double-count those — the bound only ever moves
// up, which is the direction conservative pruning needs.
func (ac *Accumulator) switchToBuckets() {
	ac.exact = false
	g := ac.cfg.MaxLag + 1
	ac.prev, ac.cur = make(map[int]int32), make(map[int]int32)
	ac.prevBlock, ac.curBlock = -1, ac.lastTick/g
	for _, r := range ac.ring[ac.head:] {
		if b := r.T / g; b == ac.curBlock {
			ac.cur[r.E]++
		} else {
			ac.prevBlock = b
			ac.prev[r.E]++
		}
	}
	ac.ring, ac.head, ac.live = nil, 0, nil
}

// bucketAdd folds a spike into the open block, flushing closed blocks'
// pair products on block advance.
func (ac *Accumulator) bucketAdd(tick, e int) {
	if b := tick / (ac.cfg.MaxLag + 1); b != ac.curBlock {
		ac.flushBlock()
		if b != ac.curBlock+1 {
			// A gap: the closed block has no adjacent successor, so its
			// cross products are zero and prev is irrelevant.
			ac.prev = make(map[int]int32)
			ac.prevBlock = -1
		}
		ac.curBlock = b
	}
	ac.cur[e]++
}

// flushBlock closes the open block: its products are added and it becomes
// prev.
func (ac *Accumulator) flushBlock() {
	ac.flushPending()
	ac.prev, ac.cur = ac.cur, ac.prev
	ac.prevBlock = ac.curBlock
	clear(ac.cur)
}

// flushPending adds the open block's within-block products and the
// previous block's cross products, exactly as blockSweep does for block b:
// cur x cur plus prev x cur when the blocks are adjacent. Emission calls it
// too, so that fresh co-occurrences are visible; the block stays open and
// keeps its counts, so its final flush re-adds these products — an
// over-count, tolerated because bucket mode is an upper bound by
// construction.
func (ac *Accumulator) flushPending() {
	if ac.exact {
		return
	}
	for a, na := range ac.cur {
		for b, nb := range ac.cur {
			if a != b {
				ac.pairs.add(int32(a), int32(b), na*nb)
			}
		}
	}
	if ac.prevBlock >= 0 && ac.curBlock == ac.prevBlock+1 {
		for a, na := range ac.prev {
			for b, nb := range ac.cur {
				if a != b {
					ac.pairs.add(int32(a), int32(b), na*nb)
				}
			}
		}
	}
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

// Exact reports whether the pair counters are still exact (the mass
// budget has not been blown).
func (ac *Accumulator) Exact() bool { return ac.exact }

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

// PairCount returns the accumulated count (or upper bound) for the
// ordered pair.
func (ac *Accumulator) PairCount(a, b int) int {
	n := int(ac.pairs.get(int32(a), int32(b)))
	if !ac.exact {
		// Include the open block's pending products in the view.
		n += int(ac.cur[a] * ac.cur[b])
		if ac.prevBlock >= 0 && ac.curBlock == ac.prevBlock+1 {
			n += int(ac.prev[a] * ac.cur[b])
		}
	}
	return n
}

// PairCand is one candidate pair emission: an ordered event pair whose
// accumulated co-occurrence count reached MinCount.
type PairCand struct {
	A, B  int
	Count int
}

// Candidates returns every pair at or above MinCount, sorted by (A, B).
// In bucket mode the still-open block's products are flushed first
// (conservatively) so fresh co-occurrences are never invisible.
func (ac *Accumulator) Candidates() []PairCand {
	ac.flushPending()
	return ac.emit(false)
}

// DrainDirty returns the candidates whose count changed since the last
// drain, sorted by (A, B), and clears the dirty set. Pairs still below
// MinCount are dropped from the drain but re-dirty on their next
// increment, so crossing the threshold always re-surfaces them. This is
// the delta a refresh needs to re-score.
func (ac *Accumulator) DrainDirty() []PairCand {
	ac.flushPending()
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
// statistics mid-stream, bit for bit.
//
//elsa:snapshot-envelope
type AccumState struct {
	MaxLag   int   `json:"max_lag"`
	Exact    bool  `json:"exact"`
	Mass     int64 `json:"mass"`
	LastTick int   `json:"last_tick"`
	TickSeen int   `json:"ticks"`

	Trains map[int][]int     `json:"trains,omitempty"`
	Counts map[uint64]int32  `json:"counts,omitempty"`
	Dirty  []uint64          `json:"dirty,omitempty"`
	Events map[int]EventStat `json:"events,omitempty"`
	Ring   []accSpike        `json:"ring,omitempty"`

	PrevBlock int           `json:"prev_block,omitempty"`
	CurBlock  int           `json:"cur_block,omitempty"`
	Prev      map[int]int32 `json:"prev,omitempty"`
	Cur       map[int]int32 `json:"cur,omitempty"`

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
		MaxLag:    ac.cfg.MaxLag,
		Exact:     ac.exact,
		Mass:      ac.mass,
		LastTick:  ac.lastTick,
		TickSeen:  ac.ticks,
		PrevBlock: ac.prevBlock,
		CurBlock:  ac.curBlock,
		LastTrim:  ac.lastTrim,
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
	if live := ac.ring[ac.head:]; len(live) > 0 {
		st.Ring = append([]accSpike(nil), live...)
	}
	if len(ac.prev) > 0 {
		st.Prev = copyBlock(ac.prev)
	}
	if len(ac.cur) > 0 {
		st.Cur = copyBlock(ac.cur)
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
	if st.Mass < 0 || st.TickSeen < 0 {
		return nil, fmt.Errorf("sig: accumulator snapshot mass %d, ticks %d: negative", st.Mass, st.TickSeen)
	}
	if st.LastTrim < 0 || st.LastTrim > st.LastTick {
		return nil, fmt.Errorf("sig: accumulator snapshot trim cursor %d outside [0, last tick %d]", st.LastTrim, st.LastTick)
	}
	ac.exact = st.Exact
	ac.mass = st.Mass
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
		ac.events.at(id).EventStat = es
	}
	if !ac.exact && len(st.Ring) > 0 {
		return nil, fmt.Errorf("sig: accumulator snapshot past the exact regime carries a ring")
	}
	for i, r := range st.Ring {
		if r.T > st.LastTick || (i > 0 && r.T < st.Ring[i-1].T) {
			return nil, fmt.Errorf("sig: accumulator snapshot ring entry %d at tick %d out of order", i, r.T)
		}
		ac.enter(r.E)
	}
	ac.ring = append([]accSpike(nil), st.Ring...)
	if !ac.exact {
		ac.prevBlock, ac.curBlock = st.PrevBlock, st.CurBlock
		ac.prev, ac.cur = copyBlock(st.Prev), copyBlock(st.Cur)
		for _, m := range []map[int]int32{ac.prev, ac.cur} {
			for id, n := range m {
				if n < 1 || int(n) > ac.cfg.MaxLag+1 {
					return nil, fmt.Errorf("sig: accumulator snapshot block count %d for event %d out of range", n, id)
				}
			}
		}
	}
	return ac, nil
}

// copyBlock returns a non-nil copy of one block's per-event counts.
func copyBlock(m map[int]int32) map[int]int32 {
	out := make(map[int]int32, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
