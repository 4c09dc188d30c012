// Package pipeline is the streaming core of ELSA's online phase: a typed,
// staged graph
//
//	Source → TemplateAssign (helo) → Sample/Signal (sig) → OutlierFilter → ChainMatch
//
// with context cancellation and per-stage counters (records in/out,
// drops, max queue depth, wall time). A tick's predictions leave the
// match stage in the Result and in Feed's return value.
//
// The graph has one set of stage bodies and one driver, Session, which
// executes them synchronously, one record per Feed call — the deployment
// shape of a monitor daemon tailing a live log. Run, the batch path,
// pulls a logs.RecordSource through a Session bounded to the run window
// (with template assignment one chunk ahead on a goroutine of its own),
// so batch prediction is a replay of what the live monitor runs, not a
// separate code path.
//
// Tick mechanics (sampling, outlier observation, chain matching, the
// analysis-time model) live in internal/predict as exported stage steps;
// this package owns ingest, ordering, concurrency and accounting.
package pipeline

import (
	"sync/atomic"
	"time"

	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/resilience"
	"github.com/elsa-hpc/elsa/internal/sig"
)

// Stage indices, in graph order.
const (
	stageSource = iota
	stageTemplate
	stageSample
	stageFilter
	stageMatch
	numStages
)

var stageNames = [numStages]string{"source", "template", "sample", "filter", "match"}

// supervisedStages are the stages whose bodies run behind a panic barrier
// with a failure budget and a circuit breaker (internal/resilience, its
// default policy). A stage whose breaker trips runs in bypass mode —
// records flow through unstamped, ticks produce no hits, or matching is
// skipped — instead of killing the monitor, and the degradation is
// visible in the stage's Health and the result's Degraded flag.
var supervisedStages = [...]int{stageTemplate, stageFilter, stageMatch}

// TemplateLearner is the online-learning slice of *helo.Organizer the
// TemplateAssign stage needs: match a message against the template set,
// merging or creating as HELO does online, and return the template.
type TemplateLearner interface {
	Learn(msg string, sev logs.Severity) *helo.Template
}

// StampEventID is the single ingest point shared by batch replay and the
// live monitor: a record without an event id is stamped by the model's
// template organizer (which keeps learning new message shapes online).
// Records arriving with an id — replayed from an already-stamped log —
// pass through untouched.
func StampEventID(rec *logs.Record, org TemplateLearner) {
	if rec.EventID < 0 && org != nil {
		rec.EventID = org.Learn(rec.Message, rec.Severity).ID
	}
}

// Config tunes the pipeline driver. The engine-level parameters (step,
// tolerance, analysis-cost model) stay in predict.Config.
type Config struct {
	// MaxBuffered bounds how many records the open (not yet closed)
	// sampling ticks may hold before the sample stage starts shedding
	// new records. Shedding stops once the buffer drains to half
	// (hysteresis); everything emitted while shedding carries the
	// Degraded flag. <= 0 disables shedding; DefaultConfig sets
	// DefaultMaxBuffered.
	MaxBuffered int

	// Accumulate, when set, arms an incremental statistics accumulator:
	// every closed tick's outlier hit set and per-event counts are folded
	// into it, so Model.Refresh can rebuild chains from live counters
	// without replaying the horizon. Its MaxLag/MinCount must match the
	// model's cross-correlation configuration.
	Accumulate *sig.AccumConfig
}

// DefaultGraceTicks is the out-of-order tolerance, per the monitor's
// documented ingest contract: a record may lag the newest record seen by
// one sampling tick and still be accepted into its (still open) tick.
// Records older than that are dropped and counted. Wall-clock
// advancement (Session.AdvanceTo) is authoritative and ignores the grace.
const DefaultGraceTicks = 1

// DefaultConfig returns the standard driver configuration.
func DefaultConfig() Config {
	return Config{MaxBuffered: DefaultMaxBuffered}
}

// Pipeline binds an armed prediction engine, a template organizer and a
// driver configuration into a runnable stage graph. A Pipeline carries
// the engine's (stateful) signal and chain state: use one Pipeline per
// run — either a single Run call or a single Session.
//
//elsa:snapshot
type Pipeline struct {
	eng *predict.Engine
	//elsa:ephemeral the resume path restores the organizer from the snapshot's HELO envelope before the pipeline is built
	org TemplateLearner
	//elsa:ephemeral driver configuration is a constructor argument, not stream state
	cfg Config

	counters [numStages]stageCounter

	// accum collects incremental training statistics from closed ticks;
	// nil when Config.Accumulate is unset. Its state rides
	// SessionState.Accum.
	accum *sig.Accumulator
	//elsa:ephemeral per-tick outlier id scratch for the accumulator tap
	accEvents []int

	// Supervisor and overload state (see harden.go).
	//elsa:ephemeral supervision health is deliberately not restored; see restoreCounters
	sups     [numStages]*resilience.Supervisor // set for supervisedStages only
	shedding atomic.Bool
}

// New builds a pipeline over an engine. org may be nil when every record
// arrives pre-stamped with an event id.
func New(eng *predict.Engine, org TemplateLearner, cfg Config) *Pipeline {
	p := &Pipeline{eng: eng, org: org, cfg: cfg}
	if cfg.Accumulate != nil {
		p.accum = sig.NewAccumulator(*cfg.Accumulate)
	}
	for _, st := range supervisedStages {
		p.sups[st] = resilience.New(resilience.Policy{})
	}
	return p
}

// Accumulator returns the incremental statistics accumulator, or nil
// when Config.Accumulate was unset.
func (p *Pipeline) Accumulator() *sig.Accumulator { return p.accum }

// observeTick feeds one closed tick to the accumulator: the sorted hit
// set becomes the tick's outlier ids, the tick sample its per-event
// record counts.
func (p *Pipeline) observeTick(b tickBatch, hits []predict.Hit) {
	ev := p.accEvents[:0]
	for _, h := range hits {
		ev = append(ev, h.Event)
	}
	p.accEvents = ev
	p.accum.ObserveTick(b.idx, b.sample.Counts, ev)
}

// FilterWorkers is the reader of the benchmark's pipeline.filter_workers
// row and nothing else: the filter stage is Engine.DetectOutliers, one
// sequential loop. It goes when a benchmark-only PR drops the row.
func (p *Pipeline) FilterWorkers() int { return 1 }

// Stats returns a point-in-time snapshot of the per-stage counters, in
// graph order, with each supervised stage's health merged in. Safe to
// call concurrently with a running driver.
func (p *Pipeline) Stats() []predict.StageStats {
	out := make([]predict.StageStats, numStages)
	for i := range p.counters {
		out[i] = p.counters[i].snapshot(stageNames[i])
	}
	for _, i := range supervisedStages {
		ss := p.sups[i].Stats()
		out[i].Panics = ss.Panics
		out[i].Bypassed = ss.Bypassed
		out[i].Trips = ss.Trips
		out[i].Probes = ss.Probes
		out[i].Health = ss.Health.String()
	}
	return out
}

// fillStats populates a result's stage snapshot plus the run-level
// hardening aggregates from the pipeline counters.
//
//elsa:snapshotter encode
func (p *Pipeline) fillStats(st *predict.Stats) {
	st.Stages = p.Stats()
	st.QuarantinedRecords = int(p.counters[stageSource].quarantined.Load())
	st.ShedRecords = int(p.counters[stageSample].shed.Load())
	if st.DegradedTicks > 0 || p.degradedNow() {
		st.Degraded = true
	}
}

// stageCounter tracks one stage's throughput; all fields are atomics so
// the replay's template goroutine, the session and Stats snapshots never
// race. maxQueue is kept by the sample stage alone: the most records the
// open ticks held at once.
type stageCounter struct {
	in, out, dropped atomic.Int64
	maxQueue         atomic.Int64
	wallNanos        atomic.Int64

	quarantined, shed atomic.Int64
}

func (c *stageCounter) observeQueue(depth int) {
	d := int64(depth)
	for {
		cur := c.maxQueue.Load()
		if d <= cur || c.maxQueue.CompareAndSwap(cur, d) {
			return
		}
	}
}

func (c *stageCounter) addWall(d time.Duration) { c.wallNanos.Add(int64(d)) }

func (c *stageCounter) snapshot(name string) predict.StageStats {
	return predict.StageStats{
		Name:        name,
		In:          c.in.Load(),
		Out:         c.out.Load(),
		Dropped:     c.dropped.Load(),
		MaxQueue:    int(c.maxQueue.Load()),
		Wall:        time.Duration(c.wallNanos.Load()),
		Quarantined: c.quarantined.Load(),
		Shed:        c.shed.Load(),
	}
}

// stampSampleEvery is the template stage's clock stride: stamp times one
// record in this many and scales the sample up. A clock pair costs about
// what a memoised Learn does, so timing every record would double the
// stage it measures.
const stampSampleEvery = 64

// stamp runs the TemplateAssign stage body for one record. In and Out are
// exact; Wall is sampled (see stampSampleEvery).
//
//elsa:hotpath
func (p *Pipeline) stamp(rec *logs.Record) {
	c := &p.counters[stageTemplate]
	if c.in.Add(1)%stampSampleEvery != 0 {
		StampEventID(rec, p.org)
	} else {
		t := time.Now()
		StampEventID(rec, p.org)
		c.addWall(time.Since(t) * stampSampleEvery)
	}
	c.out.Add(1)
}

// stampSafe is the supervised template stage: a panicking organizer
// counts against the stage's failure budget instead of killing the
// driver, and once the breaker trips records flow through unstamped
// (EventID -1, which tick aggregation ignores) until the cooldown
// probe succeeds.
func (p *Pipeline) stampSafe(rec *logs.Record) {
	sup := p.sups[stageTemplate]
	if !sup.Allow() {
		return
	}
	defer sup.Recover()
	p.stamp(rec)
	sup.OK()
}

// detect runs the OutlierFilter stage body for one tick: counters and the
// wall timer around Engine.DetectOutliers.
func (p *Pipeline) detect(t *predict.Tick, tickStart time.Time) []predict.Hit {
	c := &p.counters[stageFilter]
	c.in.Add(1)
	start := time.Now()
	hits := p.eng.DetectOutliers(t, tickStart)
	c.addWall(time.Since(start))
	c.out.Add(int64(len(hits)))
	return hits
}

// detectSafe is the supervised filter stage: with the breaker tripped
// the tick yields no hits (signal windows simply do not advance), which
// downstream matching handles as a quiet tick.
func (p *Pipeline) detectSafe(t *predict.Tick, tickStart time.Time) []predict.Hit {
	sup := p.sups[stageFilter]
	if !sup.Allow() {
		return nil
	}
	var hits []predict.Hit
	func() {
		defer sup.Recover()
		hits = p.detect(t, tickStart)
		sup.OK()
	}()
	return hits
}

// match runs the ChainMatch stage body for one closed tick, appending
// into res and returning the predictions the tick fired.
//
//elsa:hotpath
func (p *Pipeline) match(b tickBatch, hits []predict.Hit, res *predict.Result) []predict.Prediction {
	cm := &p.counters[stageMatch]
	cm.in.Add(1)
	start := time.Now()
	checks := p.eng.MatchChains(hits, b.idx)
	before := len(res.Predictions)
	p.eng.FinishTick(b.sample, checks, b.idx, b.end, res)
	cm.addWall(time.Since(start))
	fired := res.Predictions[before:]
	cm.out.Add(int64(len(fired)))
	if p.degradedNow() {
		res.Stats.DegradedTicks++
		res.Stats.Degraded = true
		for i := range fired {
			fired[i].Degraded = true
		}
	}
	return fired
}

// matchSafe is the supervised match stage: with the breaker
// tripped the tick is skipped entirely — no chain advancement, no
// emission — until the cooldown probe succeeds.
func (p *Pipeline) matchSafe(b tickBatch, hits []predict.Hit, res *predict.Result) []predict.Prediction {
	sup := p.sups[stageMatch]
	if !sup.Allow() {
		return nil
	}
	var fired []predict.Prediction
	func() {
		defer sup.Recover()
		fired = p.match(b, hits, res)
		sup.OK()
	}()
	return fired
}
