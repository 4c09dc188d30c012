// Package resilience supervises the online pipeline's stage bodies so a
// fault inside one stage degrades the monitor instead of killing it. It
// composes two supervision mechanisms per stage:
//
//   - a panic barrier (Do / Recover) that converts a stage-body panic
//     into an accounted failure while the stream keeps flowing;
//   - a circuit breaker that trips the stage into degraded/bypass mode
//     after MaxFailures panics inside one minute, half-opening again
//     30 seconds later so a healed stage can close the breaker with one
//     clean invocation.
//
// The supervisor is deliberately clock-injectable: chaos tests drive it
// with a virtual clock, so every breaker trip in the suite is
// reproducible. Backoff is the capped jittered-exponential retry
// schedule the retry loops elsewhere (ingest redial, fleet handoff)
// share.
package resilience

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Health is a stage's supervision state.
type Health int32

const (
	// Healthy: the breaker is closed and the stage body runs normally.
	Healthy Health = iota
	// Degraded: the breaker is open; stage bodies are bypassed until a
	// half-open probe succeeds.
	Degraded
)

// String renders the health state for stage-counter output.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "ok"
	case Degraded:
		return "degraded"
	default:
		return fmt.Sprintf("health(%d)", int32(h))
	}
}

// Policy tunes one stage's supervision.
type Policy struct {
	// MaxFailures is how many panics within the failure window (one
	// minute) trip the breaker. <= 0 selects DefaultMaxFailures.
	MaxFailures int
	// Clock injects the time source consulted by the failure window and
	// cooldown logic. nil selects the wall clock.
	Clock func() time.Time
}

// Supervision defaults; the backoff ones are what NewBackoff falls back
// to.
const (
	DefaultMaxFailures = 5
	DefaultBaseBackoff = 5 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
	DefaultJitter      = 0.5
)

// The breaker's timing: failureWindow is the sliding window the failure
// budget covers, and cooldown is how long an open breaker waits before
// half-opening to probe the stage with one real invocation.
const (
	failureWindow = time.Minute
	cooldown      = 30 * time.Second
)

// normalised fills policy defaults in place.
func (p Policy) normalised() Policy {
	if p.MaxFailures <= 0 {
		p.MaxFailures = DefaultMaxFailures
	}
	if p.Clock == nil {
		p.Clock = time.Now
	}
	return p
}

// Stats is a point-in-time snapshot of a supervisor's health counters.
type Stats struct {
	Panics    int64  // stage-body panics recovered (incl. Fail calls)
	Bypassed  int64  // invocations skipped while the breaker was open
	Trips     int64  // times the breaker opened (incl. failed probes)
	Probes    int64  // half-open probe invocations admitted
	Health    Health // current breaker state
	LastPanic string // rendered value of the most recent panic ("" if none)
}

// Supervisor guards one pipeline stage. All methods are safe for
// concurrent use, though each stage body is expected to be invoked from
// one goroutine at a time (the pipeline's stage-per-goroutine layout).
//
// The breaker cycle is a declared typestate protocol: Allow may admit a
// half-open probe (ready->probing), OK closes it (probing->ready), and
// Fail settles back to ready with the failure charged.
//
//elsa:state ready probing
type Supervisor struct {
	pol Policy

	mu        sync.Mutex
	failures  []time.Time // panic times inside the current window
	trippedAt time.Time
	probing   bool // a half-open probe invocation is in flight

	health    atomic.Int32
	panics    atomic.Int64
	bypassed  atomic.Int64
	trips     atomic.Int64
	probes    atomic.Int64
	lastPanic atomic.Value // string
}

// New returns a supervisor running under pol.
func New(pol Policy) *Supervisor {
	return &Supervisor{pol: pol.normalised()}
}

// Health returns the current supervision state.
func (s *Supervisor) Health() Health { return Health(s.health.Load()) }

// Degraded reports whether the breaker is open (stage bodies bypassed).
func (s *Supervisor) Degraded() bool { return s.Health() == Degraded }

// Stats snapshots the supervisor's counters.
func (s *Supervisor) Stats() Stats {
	st := Stats{
		Panics:   s.panics.Load(),
		Bypassed: s.bypassed.Load(),
		Trips:    s.trips.Load(),
		Probes:   s.probes.Load(),
		Health:   s.Health(),
	}
	if v, ok := s.lastPanic.Load().(string); ok {
		st.LastPanic = v
	}
	return st
}

// Allow reports whether the stage body should run now. With the breaker
// closed it always allows; with it open it denies until the cooldown has
// elapsed, then admits exactly one half-open probe at a time. Callers
// that are denied must apply the stage's bypass semantics (and should
// count the bypass via the return path they own).
//
//elsa:transition ready->ready ready->probing probing->probing
func (s *Supervisor) Allow() bool {
	if Health(s.health.Load()) != Degraded {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if Health(s.health.Load()) != Degraded {
		return true
	}
	if s.probing || s.pol.Clock().Sub(s.trippedAt) < cooldown {
		s.bypassed.Add(1)
		return false
	}
	s.probing = true
	s.probes.Add(1)
	return true
}

// Do invokes fn behind the panic barrier. It returns false when fn
// panicked; the panic has been recorded (and may have tripped the
// breaker) and must not propagate further.
func (s *Supervisor) Do(fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			s.recordPanic(r)
			ok = false
		}
	}()
	fn()
	s.OK()
	return true
}

// Recover is the deferred form of the panic barrier for callers that
// cannot afford a closure: `defer sup.Recover()` at the top of the
// guarded call, `sup.OK()` as its last statement.
func (s *Supervisor) Recover() {
	if r := recover(); r != nil {
		s.recordPanic(r)
	}
}

// OK records a successful invocation. Its only observable effect is
// closing the breaker after a successful half-open probe; on the healthy
// fast path it is one atomic load.
//
//elsa:transition probing->ready ready->ready
func (s *Supervisor) OK() {
	if Health(s.health.Load()) != Degraded {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.probing {
		s.probing = false
		s.failures = s.failures[:0]
		s.health.Store(int32(Healthy))
	}
}

// Fail records an externally observed failure of the supervised unit —
// a liveness probe that timed out, a worker that died without panicking
// through the barrier — with the same window/breaker accounting a
// recovered panic gets. The fleet coordinator uses it to charge shard
// incarnation deaths against the shard's failure budget.
//
//elsa:transition ready->ready probing->ready
func (s *Supervisor) Fail(reason string) {
	s.recordPanic(reason)
}

// recordPanic accounts one panic and trips the breaker when the failure
// budget for the window is exhausted (or a half-open probe failed).
func (s *Supervisor) recordPanic(r interface{}) {
	s.panics.Add(1)
	s.lastPanic.Store(fmt.Sprint(r))
	now := s.pol.Clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.probing {
		// The half-open probe failed: re-open for another cooldown.
		s.probing = false
		s.trippedAt = now
		s.trips.Add(1)
		s.health.Store(int32(Degraded))
		return
	}
	keep := s.failures[:0]
	for _, t := range s.failures {
		if now.Sub(t) <= failureWindow {
			keep = append(keep, t)
		}
	}
	s.failures = append(keep, now)
	if len(s.failures) >= s.pol.MaxFailures {
		s.trippedAt = now
		s.failures = s.failures[:0]
		s.trips.Add(1)
		s.health.Store(int32(Degraded))
	}
}
