package elsa

import (
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/ingest"
	"github.com/elsa-hpc/elsa/internal/pipeline"
	"github.com/elsa-hpc/elsa/internal/predict"
)

// IngestOffset is a resume point in an ingest backend's stream (see
// internal/ingest): it rides in monitor snapshots so a resumed daemon
// can Seek its backend to exactly the record after the snapshot.
type IngestOffset = ingest.Offset

// ErrClosed is returned by Feed after Close: the monitor's declared
// lifecycle surfaced at runtime as a typed, comparable error.
var ErrClosed = pipeline.ErrClosed

// Monitor is the incremental form of Predict: records are fed one at a
// time (a daemon tailing the live log), and predictions surface as soon
// as their sampling tick closes. New message shapes are learned online by
// the model's template organizer, as HELO does. It runs the same
// internal/pipeline stage graph batch Predict replays, driven
// synchronously.
//
// Ingest contract: records should arrive roughly in time order. A record
// up to one sampling tick older than the newest record seen is still
// accepted into its (still open) tick; older records are dropped and
// counted (Stats.LateRecords and the sample stage's Dropped counter)
// rather than corrupting tick state. So is a record stamped more than
// 366 days ahead of the newest time the monitor has seen — a collector's
// sentinel date would otherwise close every tick up to itself in one
// call; the bound is a year so that a monitor resumed after a long
// machine outage still accepts the first record after it. AdvanceTo is
// wall-clock authoritative: ticks it closes are final.
//
//elsa:state open closed
//elsa:snapshot
type Monitor struct {
	model *Model
	//elsa:ephemeral pipeline handle; rebuilt from model + snapshot on resume
	pipe    *pipeline.Pipeline
	session *pipeline.Session
	// ingestOff is the backend resume point last recorded via
	// SetIngestOffset (or restored from a snapshot); nil when the feed
	// is not offset-addressable (stdin, socket).
	ingestOff *IngestOffset
	//elsa:ephemeral caches Close's result, and a closed monitor cannot be snapshotted
	result *PredictResult
}

// NewMonitor arms the model for incremental prediction, with the first
// sampling tick starting at start.
func (m *Model) NewMonitor(start time.Time) *Monitor {
	return m.NewMonitorWith(start, DefaultPredictConfig())
}

// NewMonitorWith is NewMonitor with an explicit engine configuration.
func (m *Model) NewMonitorWith(start time.Time, cfg PredictConfig) *Monitor {
	engine := predict.NewEngine(m.inner, m.profiles, cfg)
	p := pipeline.New(engine, m.organizer, m.pipelineConfig())
	return &Monitor{model: m, pipe: p, session: p.NewSession(start)}
}

// pipelineConfig is the monitor's driver configuration: the defaults
// plus an incremental statistics accumulator armed under the model's
// training parameters, so Refresh can retrain from live counters. The
// accumulator's spike trains slide over a window as long as the span the
// model was trained on: Refresh then scores the live system over the
// amount of history training judged sufficient, so a chain whose
// archetype vanished loses its support within one span instead of
// keeping it forever, and a round's cost stops growing with uptime.
func (m *Model) pipelineConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	ac := correlate.AccumConfigFor(m.inner.Mode, m.trainCfg.Correlation)
	ac.HorizonCap = m.window
	cfg.Accumulate = &ac
	return cfg
}

// Feed ingests one record and returns any predictions that became
// visible. See the Monitor type docs for the out-of-order tolerance.
// Feeding a closed monitor returns ErrClosed and ingests nothing.
//
//elsa:requires open
func (mo *Monitor) Feed(rec Record) ([]Prediction, error) {
	return mo.session.Feed(rec)
}

// AdvanceTo closes sampling ticks up to now; call it periodically during
// quiet spells so chain expiry keeps pace with the clock. Advancing a
// closed monitor is a benign no-op.
//
//elsa:requires open
func (mo *Monitor) AdvanceTo(now time.Time) []Prediction {
	return mo.session.AdvanceTo(now)
}

// RefreshStats reports what one incremental retraining round did: how
// many changed pairs were re-scored, whether the full miner re-ran or
// the cheap rescore fast path sufficed, and the resulting chain count.
type RefreshStats = correlate.RefreshStats

// Refresh retrains the model's correlation chains from the live
// statistics the monitor has accumulated — without replaying the
// horizon. It is the paper's correlation-updating module: the spike
// trains it scores slide over the most recent training-span's worth of
// stream, so chains of a fault archetype that disappeared are retired
// and chains of a new one admitted as the machine changes. Only pairs
// whose co-occurrence counters moved since the last Refresh are
// re-scored; when the seed structure is unchanged the existing chains
// are merely re-scored against the fresh spike trains, which keeps a
// steady-state refresh well under the batch retraining cost. The
// running session keeps its stream state across the swap: partial chain
// matches survive when their chain does, and the refreshed chain set is
// live for the very next tick. Chains the refresh adds predict with
// node scope until a location profile is trained for them offline. The
// full miner runs at most once in 16 rounds while the seed structure
// keeps changing, so a new chain appears within 16 calls of its events
// first correlating: the caller's cadence sets that delay.
//
// A refresh before any tick has closed is a no-op.
func (mo *Monitor) Refresh() RefreshStats {
	acc := mo.pipe.Accumulator()
	if acc == nil || acc.Ticks() == 0 {
		return RefreshStats{}
	}
	st := mo.model.inner.Refresh(acc, mo.model.trainCfg.Correlation)
	mo.session.SyncChains()
	return st
}

// Close flushes the open ticks and returns the accumulated run result,
// including the per-stage pipeline counters in Stats.Stages. Close is
// idempotent: a second call performs no work and returns the same
// cached result — a daemon's signal handler and its deferred shutdown
// path can both call it safely.
//
//elsa:transition open->closed closed->closed
func (mo *Monitor) Close() *PredictResult {
	if mo.result == nil {
		mo.result = mo.session.Close()
	}
	return mo.result
}

// Result returns the accumulated result so far without closing.
func (mo *Monitor) Result() *PredictResult { return mo.session.Result() }

// SetIngestOffset records the ingest backend's current resume point so
// the next Snapshot carries it. A daemon calls it just before each
// snapshot with Backend.Offset(); after ResumeMonitor, the restored
// offset (IngestOffset) is handed back to Backend.Seek so the stream
// continues at exactly the record after the snapshot.
func (mo *Monitor) SetIngestOffset(off IngestOffset) {
	mo.ingestOff = &off
}

// IngestOffset returns the offset recorded by SetIngestOffset (or
// restored from a snapshot) and whether one was ever recorded.
func (mo *Monitor) IngestOffset() (IngestOffset, bool) {
	if mo.ingestOff == nil {
		return IngestOffset{}, false
	}
	return *mo.ingestOff, true
}
