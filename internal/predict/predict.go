// Package predict implements ELSA's online phase: records stream in, are
// sampled into per-event signals tick by tick, pass the on-line outlier
// filter, and outliers advance partially matched correlation chains. When
// enough of a chain's prefix has been observed the engine emits a
// prediction carrying the expected failure time, the visible prediction
// window (after subtracting the modelled analysis time) and the predicted
// location scope from the chain's propagation profile — exactly the
// prediction process of the paper's Figure 8.
package predict

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/outlier"
	"github.com/elsa-hpc/elsa/internal/sig"
	"github.com/elsa-hpc/elsa/internal/stats"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// Prediction is one emitted failure forecast.
type Prediction struct {
	TriggeredAt  time.Time     // tick at which the chain prefix completed
	IssuedAt     time.Time     // TriggeredAt + analysis time (when visible)
	ExpectedAt   time.Time     // forecast failure time
	Lead         time.Duration // ExpectedAt - IssuedAt; <= 0 means too late
	AnalysisTime time.Duration

	// ExpectedEarliest/ExpectedLatest bound the forecast window. They
	// start at the static +/- quarter-span tolerance and tighten as the
	// engine confirms the chain's real delays online (dynamic prediction
	// windows, following the authors' earlier SLAML 2011 adaptive-window
	// work).
	ExpectedEarliest time.Time
	ExpectedLatest   time.Time

	Event     int    // predicted terminal event id
	ChainKey  string // chain that fired
	ChainSize int

	Trigger topology.Location // location of the first symptom
	Scope   topology.Scope    // predicted affected scope around Trigger

	Severity logs.Severity // severity of the predicted event type

	// Degraded marks a prediction emitted while the pipeline was shedding
	// load or running a stage in bypass mode: the tick that fired it may
	// have seen an incomplete record stream, so the forecast carries less
	// confidence than a clean-mode one.
	Degraded bool
}

// Late reports whether the prediction became visible only after the
// forecast failure time (no usable window).
func (p *Prediction) Late() bool { return p.Lead <= 0 }

// Config tunes the online engine.
type Config struct {
	Step      time.Duration
	Tolerance int // tick slack when matching chain delays

	// UseLocation attaches propagation scopes from the location profiles;
	// when false every prediction targets only the trigger component (the
	// ablation the paper reports as ~94% precision without location).
	UseLocation bool

	// Analysis-time model (Section VI.A): processing a tick costs
	// BaseCost + PerMessageCost * messages + PerCheckCost * chain lookups.
	BaseCost       time.Duration
	PerMessageCost time.Duration
	PerCheckCost   time.Duration

	// OutlierWindow is the causal window for the online filters of dense
	// signals.
	OutlierWindow int

	// LegacyFilterFactor scales the analysis cost for signal-only models:
	// the paper's pure signal-analysis predecessor used the slower
	// offline-style outlier detection of its reference [4], whose online
	// analysis window "exceeds 30 seconds when the system experiences
	// bursts" versus ~2.5 s for the hybrid's on-the-fly filter.
	LegacyFilterFactor float64
}

// DefaultConfig returns the engine parameters used in the experiments. The
// cost constants are calibrated so that the paper's regimes reproduce: at
// 5 msg/s a tick's analysis is negligible, at burst rates (~100 msg/s) it
// reaches seconds.
func DefaultConfig() Config {
	return Config{
		Step:               sig.DefaultStep,
		Tolerance:          2,
		UseLocation:        true,
		BaseCost:           time.Millisecond,
		PerMessageCost:     2500 * time.Microsecond,
		PerCheckCost:       50 * time.Microsecond,
		OutlierWindow:      outlier.DefaultWindow,
		LegacyFilterFactor: 13,
	}
}

// Stats aggregates run-wide counters.
type Stats struct {
	Ticks           int
	Messages        int
	MaxTickMessages int

	Analysis    stats.Online  // per-tick analysis times, seconds
	MaxAnalysis time.Duration // worst tick

	ChainsLoaded int            // prediction-capable chains in the model
	ChainsUsed   map[string]int // chain key -> predictions fired
	LatePreds    int
	LateRecords  int // stream stragglers older than their tick, dropped

	// Input-hardening and resilience accounting (internal/pipeline runs).
	QuarantinedRecords int // malformed records diverted, never fatal
	ShedRecords        int // records dropped by overload shedding
	DegradedTicks      int // ticks processed while shedding or bypassing
	Degraded           bool

	// DedupedRecords is always 0: ingest no longer suppresses duplicates.
	// The field survives, off the snapshot wire, only because benchmark/
	// still adds it into its failed-operation count; a benchmark-only PR
	// drops that read and this field together.
	DedupedRecords int `json:"-"`

	// Stages holds per-stage pipeline counters when the run was driven
	// through internal/pipeline.
	Stages []StageStats
}

// StageStats is one pipeline stage's counter snapshot: records (or tick
// batches) in and out, drops, the most records the open ticks held at once
// (MaxQueue, sample stage only), wall time spent inside the stage body,
// plus the stage's hardening counters and supervision health. In, Out and
// the counters are exact. The template stage's Wall is an estimate: it
// times one record in every 64 and scales, because a clock read costs
// about what stamping a record does; the per-tick stages time every call.
type StageStats struct {
	Name     string
	In       int64
	Out      int64
	Dropped  int64
	MaxQueue int
	Wall     time.Duration

	// Hardening counters: quarantined records (ingest) and shed records
	// (overload).
	Quarantined int64
	Shed        int64

	// Supervision health: recovered stage-body panics, invocations
	// bypassed with the breaker open, breaker trip and half-open probe
	// counts, and the breaker state ("" for the source and sample
	// stages, which run no supervised body).
	Panics   int64
	Bypassed int64
	Trips    int64
	Probes   int64
	Health   string
}

// Result is the outcome of an online run.
type Result struct {
	Predictions []Prediction
	Stats       Stats
}

// chainRef indexes one item of one chain.
type chainRef struct {
	chain *correlate.Chain
	idx   int
}

// Hit is one outlier observation within a tick: the sampling/filtering
// stages reduce a tick's records to a set of Hits, which is all the
// chain-matching stage consumes.
type Hit struct {
	Event int
	Loc   topology.Location
}

// Tick is one sampling interval's aggregate: per-event counts, the first
// location seen per event, and the number of stamped records. It is the
// unit of work flowing between the sampling and filtering stages. The
// counts keep the ids in first-seen order, so the stages walk what the
// tick touched, and a Tick is recycled with Reset: once its tables have
// grown to the stream's ids, counting and closing a tick allocate
// nothing. The zero value is an empty tick.
type Tick struct {
	Counts   sig.Counts
	firstLoc []topology.Location // parallel to Counts.All()
	N        int
}

// NewTick returns an empty tick sample.
func NewTick() *Tick { return new(Tick) }

// Add folds one record into the tick. Records without an event id are
// ignored (they carry no signal).
//
//elsa:hotpath
func (t *Tick) Add(r logs.Record) {
	if r.EventID < 0 {
		return
	}
	t.N++
	if t.Counts.Add(r.EventID, 1) {
		if t.firstLoc == nil {
			t.firstLoc = make([]topology.Location, 0, 8) //nolint:elsahotpath // once per Tick, alongside the counts' first slots
		}
		t.firstLoc = append(t.firstLoc, r.Location) //nolint:elsahotpath // amortized: bounded by the distinct ids of one tick
	}
}

// FirstLoc returns the location of the first record of event id the tick
// counted, the zero Location when it counted none.
func (t *Tick) FirstLoc(id int) topology.Location {
	if s := t.Counts.Slot(id); s >= 0 {
		return t.firstLoc[s]
	}
	return topology.Location{}
}

// Reset empties the tick for reuse, keeping its storage.
//
//elsa:hotpath
func (t *Tick) Reset() {
	t.Counts.Reset()
	t.firstLoc = t.firstLoc[:0]
	t.N = 0
}

// Clone returns a deep copy of the tick.
func (t *Tick) Clone() *Tick {
	c := NewTick()
	for _, e := range t.Counts.All() {
		c.Counts.Add(e.ID, e.N)
	}
	c.firstLoc = append(c.firstLoc, t.firstLoc...)
	c.N = t.N
	return c
}

// tickWire is a Tick's JSON form: the two maps it was once made of, so a
// snapshot's open ticks keep their bytes.
type tickWire struct {
	Counts   map[int]int
	FirstLoc map[int]topology.Location
	N        int
}

// MarshalJSON writes the tick as {"Counts":…,"FirstLoc":…,"N":…}, id
// keys in encoding/json's map order.
func (t *Tick) MarshalJSON() ([]byte, error) {
	w := tickWire{
		Counts:   make(map[int]int, t.Counts.Len()),
		FirstLoc: make(map[int]topology.Location, t.Counts.Len()),
		N:        t.N,
	}
	for i, c := range t.Counts.All() {
		w.Counts[c.ID] = c.N
		w.FirstLoc[c.ID] = t.firstLoc[i]
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads what MarshalJSON writes. A snapshot is bytes this
// process did not necessarily write, so a tick Add could not have built
// — a negative id, a count below 1, a first location without a count or
// a count without one — is an error. Ids are counted in ascending order.
// N is taken as written; ResumeSession checks it against the counts.
func (t *Tick) UnmarshalJSON(data []byte) error {
	var w tickWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	ids := make([]int, 0, len(w.Counts))
	for id, n := range w.Counts {
		if id < 0 || n < 1 {
			return fmt.Errorf("predict: tick counts %d records of event %d", n, id)
		}
		if _, ok := w.FirstLoc[id]; !ok {
			return fmt.Errorf("predict: tick counts event %d but holds no location for it", id)
		}
		ids = append(ids, id)
	}
	if len(w.FirstLoc) != len(w.Counts) {
		return errors.New("predict: tick holds a location for an event it does not count")
	}
	slices.Sort(ids)
	t.Reset()
	for _, id := range ids {
		t.Counts.Add(id, w.Counts[id])
		t.firstLoc = append(t.firstLoc, w.FirstLoc[id])
	}
	t.N = w.N
	return nil
}

// instance is a partially matched chain occurrence.
//
//elsa:snapshot
type instance struct {
	chain     *correlate.Chain
	startTick int
	matched   []bool
	//elsa:ephemeral popcount of matched; Restore recomputes it
	nMatched int
	trigger  topology.Location
	fired    bool
}

// Engine is the online predictor. Build one with NewEngine per test run;
// it is not safe for concurrent use.
//
//elsa:snapshot
type Engine struct {
	//elsa:ephemeral trained-model reference; Restore resolves the snapshot against it
	model *correlate.Model
	//elsa:ephemeral trained location profiles, loaded with the model
	profiles map[string]*location.Profile
	//elsa:ephemeral engine configuration is a constructor argument, not stream state
	cfg Config

	//elsa:ephemeral model-derived wiring rebuilt by NewEngine
	chains []correlate.Chain
	//elsa:ephemeral model-derived wiring rebuilt by NewEngine
	byEvent map[int][]chainRef // event id -> positions in chains
	//elsa:ephemeral model-derived wiring rebuilt by NewEngine
	firstEvents map[int][]*correlate.Chain

	detectors []denseFilter // dense events only, ascending event id
	//elsa:ephemeral model-derived wiring rebuilt by NewEngine
	position []int32 // event id -> index into detectors, -1 for the sparse path
	//elsa:ephemeral filter clock and due table; NewEngine and Restore rebuild them from the windows
	scan   filterScan
	active []*instance
	spans  map[string]*spanTracker // chain key -> confirmed-delay stats
}

// spanTracker accumulates the observed trigger-to-terminal spans of one
// chain (in ticks) to adapt its prediction window.
//
//elsa:snapshot
type spanTracker struct {
	q10, q90 *stats.StreamingQuantile
	n        int
}

// minConfirmations is how many confirmed occurrences a chain needs before
// its adaptive window replaces the static one.
const minConfirmations = 5

// NewEngine prepares an engine from a trained model and its location
// profiles (nil profiles disable location prediction regardless of
// cfg.UseLocation).
func NewEngine(model *correlate.Model, profiles map[string]*location.Profile, cfg Config) *Engine {
	if cfg.Step <= 0 {
		cfg.Step = model.Step
	}
	e := &Engine{
		model:       model,
		profiles:    profiles,
		cfg:         cfg,
		byEvent:     make(map[int][]chainRef),
		firstEvents: make(map[int][]*correlate.Chain),
		spans:       make(map[string]*spanTracker),
	}
	e.rebuildChains()
	// Dense signals get a real online filter; silent signals use the
	// fast path (any occurrence is an outlier). The set never changes
	// after construction, so it is put in order and indexed here, once.
	maxID := -1
	for id, p := range model.Profiles {
		if p.Class != sig.Silent && model.Mode != correlate.DataMiningOnly {
			d := denseFilter{id: id, det: *outlier.NewDetector(cfg.OutlierWindow, model.Thresholds[id])}
			if p.Class == sig.Periodic {
				d.baseline = p.Baseline
			}
			e.detectors = append(e.detectors, d)
			maxID = max(maxID, id)
		}
	}
	sort.Slice(e.detectors, func(i, j int) bool { return e.detectors[i].id < e.detectors[j].id })
	// Event ids are dense template ids (LoadModel rejects a profile that
	// names no template), so a table indexed by id finds a count's
	// detector in one load.
	e.position = make([]int32, maxID+1)
	for i := range e.position {
		e.position[i] = -1
	}
	e.scan.due = make([]int, len(e.detectors))
	e.scan.counts = make([]int, len(e.detectors))
	for i := range e.detectors {
		d := &e.detectors[i]
		if d.id >= 0 {
			e.position[d.id] = int32(i)
		}
		if !slices.ContainsFunc(d.baseline, func(b float64) bool { return b != 0 }) {
			d.baseline = nil // c − 0 is c: an all-zero baseline scores like none
		}
		d.last, d.evictAt = -1, never
		e.scan.due[i] = d.due()
	}
	return e
}

// detector returns the position of event id's filter, or -1 when the
// event takes the sparse path.
func (e *Engine) detector(id int) int {
	if uint(id) < uint(len(e.position)) {
		return int(e.position[id])
	}
	return -1
}

// rebuildChains derives the engine's chain wiring from the model's
// current chain set. Prediction-capable chains are the predictive (not
// all-INFO) ones ending in an error-severity event.
func (e *Engine) rebuildChains() {
	e.chains = e.chains[:0]
	e.byEvent = make(map[int][]chainRef)
	e.firstEvents = make(map[int][]*correlate.Chain)
	for _, c := range e.model.Chains {
		if !c.Predictive {
			continue
		}
		if !e.model.Severity[c.Last().Event].IsError() {
			continue
		}
		e.chains = append(e.chains, c)
	}
	for i := range e.chains {
		c := &e.chains[i]
		e.firstEvents[c.First()] = append(e.firstEvents[c.First()], c)
		for idx, it := range c.Items {
			if idx == 0 {
				continue
			}
			e.byEvent[it.Event] = append(e.byEvent[it.Event], chainRef{chain: c, idx: idx})
		}
	}
}

// SwapChains re-derives the chain wiring after the model's chain set
// changed underneath the engine (incremental retraining). Stream state
// survives: detectors keep their windows, span trackers their confirmed
// delays, and active instances whose chain still exists under the same
// key are re-pointed at the new chain value; instances of chains the
// refresh dropped or re-shaped expire immediately. Returns the number
// of prediction-capable chains now loaded.
func (e *Engine) SwapChains() int {
	// Instances hold pointers into the old e.chains backing array, which
	// rebuildChains reuses — resolve their keys first.
	old := e.active
	oldKeys := make([]string, len(old))
	for i, in := range old {
		oldKeys[i] = in.chain.Key()
	}
	e.rebuildChains()
	byKey := make(map[string]*correlate.Chain, len(e.chains))
	for i := range e.chains {
		byKey[e.chains[i].Key()] = &e.chains[i]
	}
	kept := old[:0]
	for i, in := range old {
		c, ok := byKey[oldKeys[i]]
		if !ok || len(in.matched) != len(c.Items) {
			continue
		}
		in.chain = c
		kept = append(kept, in)
	}
	for i := len(kept); i < len(old); i++ {
		old[i] = nil
	}
	e.active = kept
	return len(e.chains)
}

// ChainCount reports how many prediction-capable chains are loaded.
func (e *Engine) ChainCount() int { return len(e.chains) }

// Step returns the engine's sampling interval (normalised to the model's
// step when the config left it unset).
func (e *Engine) Step() time.Duration { return e.cfg.Step }

// NewResult returns an empty result primed with the engine's chain
// inventory; drivers accumulate ticks into it via FinishTick.
func (e *Engine) NewResult() *Result {
	return &Result{Stats: Stats{
		ChainsLoaded: len(e.chains),
		ChainsUsed:   make(map[string]int),
	}}
}

// DetectorIDs returns the event ids that carry a dense online filter, in
// ascending order.
func (e *Engine) DetectorIDs() []int {
	ids := make([]int, len(e.detectors))
	for i, d := range e.detectors {
		ids[i] = d.id
	}
	return ids
}

// MatchChains advances the chain-matching stage by one tick's sorted hit
// set and returns the number of chain checks performed (the analysis-time
// model's currency). Spawns run before advances so chains whose items
// share one tick (simultaneous sequences like CIODB) match within it.
//
//elsa:hotpath
func (e *Engine) MatchChains(hits []Hit, tick int) (checks int) {
	for _, h := range hits {
		checks += e.spawn(h.Event, h.Loc, tick)
	}
	for _, h := range hits {
		checks += e.advance(h.Event, tick)
	}
	return checks
}

// FinishTick accounts one tick into res: message counters, the modelled
// analysis time for n messages and checks chain lookups, then firing and
// expiry of active chain instances.
func (e *Engine) FinishTick(t *Tick, checks, tick int, tickEnd time.Time, res *Result) {
	res.Stats.Ticks++
	res.Stats.Messages += t.N
	if t.N > res.Stats.MaxTickMessages {
		res.Stats.MaxTickMessages = t.N
	}
	cost := e.cfg.BaseCost +
		time.Duration(t.N)*e.cfg.PerMessageCost +
		time.Duration(checks)*e.cfg.PerCheckCost
	if e.model.Mode == correlate.SignalOnly && e.cfg.LegacyFilterFactor > 1 {
		cost = time.Duration(float64(cost) * e.cfg.LegacyFilterFactor)
	}
	res.Stats.Analysis.Add(cost.Seconds())
	if cost > res.Stats.MaxAnalysis {
		res.Stats.MaxAnalysis = cost
	}
	e.fireAndExpire(tick, tickEnd, cost, res)
}

// spawn opens new instances for chains whose first item is event. An
// instance is not duplicated while another instance of the same chain with
// a start within tolerance is active — the paper skips events already in
// an active correlation list.
func (e *Engine) spawn(event int, loc topology.Location, tick int) (checks int) {
	for _, c := range e.firstEvents[event] {
		checks++
		dup := false
		for _, in := range e.active {
			if in.chain == c && abs(in.startTick-tick) <= e.cfg.Tolerance {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		in := &instance{
			chain:     c,
			startTick: tick,
			matched:   make([]bool, len(c.Items)),
			trigger:   loc,
		}
		in.matched[0] = true
		in.nMatched = 1
		e.active = append(e.active, in)
	}
	return checks
}

// advance marks items of active instances matched by an outlier of event
// at tick. Fired instances keep watching for their terminal item: its
// arrival confirms the chain and feeds the adaptive window tracker.
func (e *Engine) advance(event, tick int) (checks int) {
	refs := e.byEvent[event]
	if len(refs) == 0 {
		return 0
	}
	for _, in := range e.active {
		last := in.chain.Size() - 1
		for idx, it := range in.chain.Items {
			if it.Event != event || in.matched[idx] {
				continue
			}
			if in.fired && idx != last {
				continue
			}
			checks++
			if abs(in.startTick+it.Delay-tick) <= sig.DelayTolerance(it.Delay, e.cfg.Tolerance) {
				in.matched[idx] = true
				in.nMatched++
				if idx == last {
					e.confirm(in.chain.Key(), tick-in.startTick)
				}
			}
		}
	}
	return checks
}

// confirm records one observed trigger-to-terminal span for a chain.
func (e *Engine) confirm(key string, span int) {
	tr, ok := e.spans[key]
	if !ok {
		tr = &spanTracker{
			q10: stats.NewStreamingQuantile(0.1),
			q90: stats.NewStreamingQuantile(0.9),
		}
		e.spans[key] = tr
	}
	tr.q10.Add(float64(span))
	tr.q90.Add(float64(span))
	tr.n++
}

// required returns how many items must match before a chain fires: pairs
// fire on their trigger, longer chains once two events have confirmed the
// pattern. Firing early preserves the long visible windows the chains were
// mined for (a node-card sequence must predict ~45 minutes out, not after
// its last warning); the second event is what buys the hybrid method its
// precision edge over single-event pair triggers.
func required(size int) int {
	if size <= 2 {
		return 1
	}
	return 2
}

// fireAndExpire emits predictions from complete prefixes and drops
// instances whose window has passed.
func (e *Engine) fireAndExpire(tick int, tickEnd time.Time, cost time.Duration, res *Result) {
	kept := e.active[:0]
	for _, in := range e.active {
		span := in.chain.Span()
		if !in.fired && in.nMatched >= required(in.chain.Size()) {
			in.fired = true
			key := in.chain.Key()
			expected := tickEnd.Add(time.Duration(in.startTick+span-tick-1) * e.cfg.Step)
			issued := tickEnd.Add(cost)
			scope := topology.ScopeNode
			if e.cfg.UseLocation && e.profiles != nil {
				if p, ok := e.profiles[key]; ok {
					scope = p.PredictScope()
				}
			}
			earlyTicks, lateTicks := e.windowTicks(key, span)
			tickOf := func(endTick int) time.Time {
				return tickEnd.Add(time.Duration(in.startTick+endTick-tick-1) * e.cfg.Step)
			}
			pred := Prediction{
				TriggeredAt:      tickEnd,
				IssuedAt:         issued,
				ExpectedAt:       expected,
				ExpectedEarliest: tickOf(earlyTicks),
				ExpectedLatest:   tickOf(lateTicks),
				Lead:             expected.Sub(issued),
				AnalysisTime:     cost,
				Event:            in.chain.Last().Event,
				ChainKey:         key,
				ChainSize:        in.chain.Size(),
				Trigger:          in.trigger,
				Scope:            scope,
				Severity:         e.model.Severity[in.chain.Last().Event],
			}
			if pred.Late() {
				res.Stats.LatePreds++
			}
			res.Predictions = append(res.Predictions, pred)
			res.Stats.ChainsUsed[key]++
		}
		// Fired instances stay until expiry so the terminal event can
		// confirm the chain and feed the adaptive window.
		if tick <= in.startTick+span+sig.DelayTolerance(span, e.cfg.Tolerance) {
			kept = append(kept, in)
		}
	}
	e.active = kept
}

// windowTicks returns the forecast window bounds in ticks from the
// instance start: the chain's adaptive quantiles once enough occurrences
// confirmed, the static quarter-span tolerance before that.
func (e *Engine) windowTicks(key string, span int) (early, late int) {
	if tr, ok := e.spans[key]; ok && tr.n >= minConfirmations {
		return int(tr.q10.Value()), int(tr.q90.Value()) + 1
	}
	tol := sig.DelayTolerance(span, e.cfg.Tolerance)
	return span - tol, span + tol
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
