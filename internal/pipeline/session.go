package pipeline

import (
	"errors"
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
)

// ErrClosed is returned by Feed after Close: the declared lifecycle
// (//elsa:state open closed) surfaced at runtime. It is a package-level
// sentinel so the hot path pays no allocation to report it.
var ErrClosed = errors.New("pipeline: session is closed")

// Session is the driver of the stage graph: the stage bodies executed
// synchronously, one record per Feed call. It is the deployment shape of
// a monitor daemon tailing a live log, the backing of the public Monitor
// API, and — bounded to a run window — what Run replays a batch through.
//
// Ingest contract: records should arrive roughly in time order. A record
// up to DefaultGraceTicks sampling ticks older than the newest record
// seen is still accepted into its (still open) tick; older records, and
// records stamped more than maxForwardJump (366 days) ahead of the
// stream, are dropped and counted in the sample stage's Dropped counter
// and the result's LateRecords. AdvanceTo is wall-clock-authoritative:
// ticks it closes are final regardless of grace. A Session is not safe
// for concurrent use.
//
//elsa:state open closed
//elsa:snapshot
type Session struct {
	p   *Pipeline
	smp *sampler
	res *predict.Result
	//elsa:ephemeral snapshots of closed sessions are rejected, so a resumed session always starts open
	closed bool
}

// NewSession arms the pipeline for incremental feeding, with tick 0
// starting at start.
func (p *Pipeline) NewSession(start time.Time) *Session { return p.newSession(start, -1) }

// newSession bounds the session to nTicks ticks from start (Run's replay
// window); nTicks < 0 leaves it unbounded.
func (p *Pipeline) newSession(start time.Time, nTicks int) *Session {
	return &Session{
		p:   p,
		smp: newSampler(start, p.eng.Step(), nTicks),
		res: p.eng.NewResult(),
	}
}

// Feed ingests one record and returns any predictions that became
// visible by closing ticks. Feeding a closed session returns ErrClosed
// and ingests nothing.
//
//elsa:hotpath
//elsa:requires open
func (s *Session) Feed(rec logs.Record) ([]predict.Prediction, error) {
	if s.closed {
		return nil, ErrClosed
	}
	src := &s.p.counters[stageSource]
	src.in.Add(1)
	if !s.p.ingest(&rec) {
		return nil, nil
	}
	src.out.Add(1)
	if s.p.shouldShed(s.smp.buffered) {
		return s.shed(rec.Time), nil // before template work
	}
	s.p.stampSafe(&rec)
	return s.sample(rec), nil
}

// shed drops a record under overload, but lets its timestamp drive tick
// progress so the buffer drains.
func (s *Session) shed(ts time.Time) []predict.Prediction {
	s.p.counters[stageSample].shed.Add(1)
	s.smp.bump(ts)
	return s.closeTo(s.smp.closeDue())
}

// sample folds one admitted, stamped record into its tick, after running
// the ticks its arrival closed.
func (s *Session) sample(rec logs.Record) []predict.Prediction {
	if s.p.accum != nil && rec.EventID >= 0 {
		s.p.accum.NoteSeverity(rec.EventID, int(rec.Severity))
	}
	c := &s.p.counters[stageSample]
	c.in.Add(1)
	idx, accepted := s.smp.admit(rec)
	out := s.closeTo(s.smp.closeDue())
	if accepted {
		s.smp.insert(idx, rec)
	} else {
		c.dropped.Add(1)
		s.res.Stats.LateRecords++
	}
	c.observeQueue(s.smp.buffered)
	return out
}

// AdvanceTo closes every tick that ends at or before now, returning the
// predictions they emitted. Call it periodically even without records so
// tick processing and chain expiry keep pace with the clock during quiet
// spells. Advancing a closed session is a benign no-op.
//
//elsa:requires open
func (s *Session) AdvanceTo(now time.Time) []predict.Prediction {
	if s.closed {
		return nil
	}
	return s.closeTo(s.smp.closeBy(now))
}

// Close flushes every still-open tick and returns the accumulated
// result, with the per-stage counters in Stats.Stages. The session
// cannot be fed afterwards; Close is idempotent.
//
//elsa:transition open->closed closed->closed
func (s *Session) Close() *predict.Result {
	if !s.closed {
		s.closeTo(s.smp.closeAll())
		s.closed = true
		s.p.fillStats(&s.res.Stats)
	}
	return s.res
}

// Result returns the accumulated result so far without closing, with a
// current snapshot of the stage counters.
func (s *Session) Result() *predict.Result {
	s.p.fillStats(&s.res.Stats)
	return s.res
}

// closeTo closes every tick before target, in order, and pushes each
// through the filter and match stages before the next closes — teeing
// its hit set into the statistics accumulator when one is armed. Every
// path that closes ticks (a record, a shed record's timestamp, the wall
// clock, Close) goes through this one loop.
func (s *Session) closeTo(target int) []predict.Prediction {
	var out []predict.Prediction
	for s.smp.next < target {
		b := s.smp.closeNext()
		s.p.counters[stageSample].out.Add(1)
		hits := s.p.detectSafe(b.sample, b.start)
		if s.p.accum != nil {
			s.p.observeTick(b, hits)
		}
		out = append(out, s.p.matchSafe(b, hits, s.res)...)
	}
	return out
}

// SyncChains re-derives the engine's chain wiring after the model's
// chain set changed underneath it (Model.Refresh): surviving partial
// matches keep matching, instances of dropped chains expire, and the
// result's chain inventory is updated. Returns the number of
// prediction-capable chains now loaded.
func (s *Session) SyncChains() int {
	n := s.p.eng.SwapChains()
	s.res.Stats.ChainsLoaded = n
	return n
}
