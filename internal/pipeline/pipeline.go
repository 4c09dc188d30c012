// Package pipeline is the streaming core of ELSA's online phase: a typed,
// staged graph
//
//	Source → TemplateAssign (helo) → Sample/Signal (sig) → OutlierFilter → ChainMatch → PredictionSink
//
// with context cancellation and per-stage counters (records in/out,
// drops, max queue depth, wall time). The hot filtering stage shards its
// per-event-type signal state across workers.
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
	"runtime"
	"sync"
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
	stageSink
	numStages
)

var stageNames = [numStages]string{"source", "template", "sample", "filter", "match", "sink"}

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
	// Workers caps the filter stage's fan-out across detector shards.
	// <= 0 selects runtime.NumCPU(). The effective width also never
	// exceeds one worker per minShardSize detectors, so all but very wide
	// models run sequentially.
	Workers int

	// GraceTicks is how many sampling ticks a record may lag the newest
	// record seen and still be accepted into its (still open) tick.
	// Records older than that are dropped and counted. Wall-clock
	// advancement (Session.AdvanceTo) is authoritative and ignores the
	// grace. Negative values are treated as 0.
	GraceTicks int

	// OnPrediction, when set, is invoked from the sink stage for every
	// prediction as soon as its tick closes (live and replay).
	OnPrediction func(predict.Prediction)

	// Supervise wraps the template, filter and match stage bodies in
	// panic barriers with failure budgets and circuit breakers
	// (internal/resilience). A stage whose breaker trips runs in bypass
	// mode — records flow through unstamped, ticks produce no hits, or
	// matching is skipped — instead of killing the monitor, and the
	// degradation is visible in the stage's Health and the result's
	// Degraded flag. DefaultConfig enables it; the zero Config does not.
	Supervise bool

	// Supervision tunes the per-stage supervisors. Zero-value fields
	// select the resilience package defaults.
	Supervision resilience.Policy

	// DedupWindow > 0 enables exact-duplicate suppression at ingest: a
	// record identical in every field to one of the last DedupWindow
	// accepted records is dropped and counted (collector retry bursts).
	// It is off by default — a batch replay must see the stream
	// verbatim to stay tick-for-tick identical to the reference engine.
	DedupWindow int

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

// DefaultGraceTicks is the default out-of-order tolerance: one sampling
// tick, per the monitor's documented ingest contract.
const DefaultGraceTicks = 1

// minShardSize is the fewest detectors worth giving a filter worker: the
// measured crossover of BenchmarkDetectFanout (2 vCPUs). Two workers lose
// 2x to the sequential loop at 170 detectors (the bgl200 model: ~35 us of
// work against the cost of waking a goroutine and waiting for it), break
// even at 1000 and win 1.5x at 4000.
const minShardSize = 512

// DefaultConfig returns the standard driver configuration.
func DefaultConfig() Config {
	return Config{
		Workers:     runtime.NumCPU(),
		GraceTicks:  DefaultGraceTicks,
		Supervise:   true,
		MaxBuffered: DefaultMaxBuffered,
	}
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

	//elsa:ephemeral model-derived wiring rebuilt by New
	ids []int // all dense-detector event ids, ascending
	//elsa:ephemeral model-derived wiring rebuilt by New
	shards [][]int // ids partitioned for the filter fan-out

	counters [numStages]stageCounter

	// accum collects incremental training statistics from closed ticks;
	// nil when Config.Accumulate is unset. Its state rides
	// SessionState.Accum.
	accum *sig.Accumulator
	//elsa:ephemeral per-tick outlier id scratch for the accumulator tap
	accEvents []int

	// Input hardening and supervision state (see harden.go).
	//elsa:ephemeral ingest diagnostics; the aggregate counts persist via the stage counters
	quar  quarantine
	dedup *dedupRing // nil when Config.DedupWindow <= 0
	//elsa:ephemeral supervision health is deliberately not restored; see restoreCounters
	sups     [numStages]*resilience.Supervisor // nil when unsupervised
	shedding atomic.Bool
}

// New builds a pipeline over an engine. org may be nil when every record
// arrives pre-stamped with an event id.
func New(eng *predict.Engine, org TemplateLearner, cfg Config) *Pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.GraceTicks < 0 {
		cfg.GraceTicks = 0
	}
	p := &Pipeline{eng: eng, org: org, cfg: cfg, ids: eng.DetectorIDs()}
	p.shards = partition(p.ids, max(1, min(cfg.Workers, len(p.ids)/minShardSize)))
	if cfg.DedupWindow > 0 {
		p.dedup = newDedupRing(cfg.DedupWindow)
	}
	if cfg.Accumulate != nil {
		p.accum = sig.NewAccumulator(*cfg.Accumulate)
	}
	if cfg.Supervise {
		for _, st := range []int{stageTemplate, stageFilter, stageMatch} {
			p.sups[st] = resilience.New(stageNames[st], cfg.Supervision)
		}
	}
	return p
}

// partition deals ids round-robin into w shards.
func partition(ids []int, w int) [][]int {
	shards := make([][]int, w)
	for i, id := range ids {
		shards[i%w] = append(shards[i%w], id)
	}
	return shards
}

// Engine returns the wrapped prediction engine.
func (p *Pipeline) Engine() *predict.Engine { return p.eng }

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

// FilterWorkers returns the filter stage's effective fan-out width.
func (p *Pipeline) FilterWorkers() int { return len(p.shards) }

// Stats returns a point-in-time snapshot of the per-stage counters, in
// graph order, with each supervised stage's health merged in. Safe to
// call concurrently with a running driver.
func (p *Pipeline) Stats() []predict.StageStats {
	out := make([]predict.StageStats, numStages)
	for i := range p.counters {
		out[i] = p.counters[i].snapshot(stageNames[i])
		if sup := p.sups[i]; sup != nil {
			ss := sup.Stats()
			out[i].Panics = ss.Panics
			out[i].Bypassed = ss.Bypassed
			out[i].Trips = ss.Trips
			out[i].Probes = ss.Probes
			out[i].Health = ss.Health.String()
		}
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
	st.DedupedRecords = int(p.counters[stageSource].deduped.Load())
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

	quarantined, deduped, shed atomic.Int64
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
		Deduped:     c.deduped.Load(),
		Shed:        c.shed.Load(),
	}
}

// stamp runs the TemplateAssign stage body for one record.
//
//elsa:hotpath
func (p *Pipeline) stamp(rec *logs.Record) {
	c := &p.counters[stageTemplate]
	c.in.Add(1)
	t := time.Now()
	StampEventID(rec, p.org)
	c.addWall(time.Since(t))
	c.out.Add(1)
}

// stampSafe is the supervised template stage: a panicking organizer
// counts against the stage's failure budget instead of killing the
// driver, and once the breaker trips records flow through unstamped
// (EventID -1, which tick aggregation ignores) until the cooldown
// probe succeeds.
func (p *Pipeline) stampSafe(rec *logs.Record) {
	sup := p.sups[stageTemplate]
	if sup == nil {
		p.stamp(rec)
		return
	}
	if !sup.Allow() {
		return
	}
	defer sup.Recover()
	p.stamp(rec)
	sup.OK()
}

// detect runs the OutlierFilter stage body for one tick: every dense
// detector observes its sampled value (sharded across the filter workers
// when the model is wide enough), sparse events pass straight through,
// and the merged hit set is sorted for deterministic matching. The
// result is identical to Engine.DetectOutliers.
func (p *Pipeline) detect(t *predict.Tick, tickStart time.Time) []predict.Hit {
	c := &p.counters[stageFilter]
	c.in.Add(1)
	start := time.Now()
	var hits []predict.Hit
	if len(p.shards) <= 1 {
		hits = p.observeShard(p.ids, t, tickStart)
	} else {
		partial := make([][]predict.Hit, len(p.shards))
		run := func(w int) {
			// A panic on a worker goroutine cannot be recovered by the
			// caller; the barrier must sit here. The shard's hits are
			// lost for this tick, the process survives.
			if sup := p.sups[stageFilter]; sup != nil {
				defer sup.Recover()
			}
			partial[w] = p.observeShard(p.shards[w], t, tickStart)
		}
		var wg sync.WaitGroup
		for w := 1; w < len(p.shards); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				run(w)
			}(w)
		}
		run(0) // on this goroutine: it would only wait otherwise
		wg.Wait()
		for _, hs := range partial {
			hits = append(hits, hs...)
		}
	}
	hits = p.eng.SparseHits(t, hits)
	predict.SortHits(hits)
	c.addWall(time.Since(start))
	c.out.Add(int64(len(hits)))
	return hits
}

// observeShard feeds the tick to the given detectors in order.
func (p *Pipeline) observeShard(ids []int, t *predict.Tick, tickStart time.Time) []predict.Hit {
	var hits []predict.Hit
	for _, id := range ids {
		if h, ok := p.eng.ObserveDetector(id, t, tickStart); ok {
			hits = append(hits, h)
		}
	}
	return hits
}

// detectSafe is the supervised filter stage: with the breaker tripped
// the tick yields no hits (signal windows simply do not advance), which
// downstream matching handles as a quiet tick.
func (p *Pipeline) detectSafe(t *predict.Tick, tickStart time.Time) []predict.Hit {
	sup := p.sups[stageFilter]
	if sup == nil {
		return p.detect(t, tickStart)
	}
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

// match runs the ChainMatch + PredictionSink stage bodies for one closed
// tick, appending into res and returning the predictions the tick fired.
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

	cs := &p.counters[stageSink]
	cs.in.Add(int64(len(fired)))
	if p.cfg.OnPrediction != nil {
		for _, pr := range fired {
			p.cfg.OnPrediction(pr)
		}
	}
	cs.out.Add(int64(len(fired)))
	return fired
}

// matchSafe is the supervised match/sink stage: with the breaker
// tripped the tick is skipped entirely — no chain advancement, no
// emission — until the cooldown probe succeeds.
func (p *Pipeline) matchSafe(b tickBatch, hits []predict.Hit, res *predict.Result) []predict.Prediction {
	sup := p.sups[stageMatch]
	if sup == nil {
		return p.match(b, hits, res)
	}
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
