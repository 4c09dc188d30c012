package pipeline

import (
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
)

// tickBatch is one closed sampling tick flowing from the Sample stage to
// the OutlierFilter stage.
type tickBatch struct {
	idx        int
	start, end time.Time
	sample     *predict.Tick
}

// sampler is the Sample/Signal stage body: it folds records into
// per-tick aggregates and decides when a tick is closed.
//
// Ordering contract: record timestamps are treated as an unreliable
// clock. A tick closes only once a record stamped at least
// DefaultGraceTicks full steps past its end has been seen (high-water
// mark), so records up to DefaultGraceTicks late still land in their open
// tick. Records older than the newest closed tick are dropped and
// counted — they can no longer be sampled without corrupting
// already-filtered signal state — and so, in an unbounded session, is a
// record more than maxForwardJump ahead of the cursor. Explicit
// wall-clock advancement (advanceTo) is authoritative and closes ticks
// without grace.
//
//elsa:snapshot
type sampler struct {
	origin time.Time
	step   time.Duration
	//elsa:ephemeral run-window bound is a constructor argument; resumed sessions are always unbounded
	limit int // ticks in the run window; < 0 means unbounded (live session)

	next int // next tick index to close
	hw   time.Time
	open map[int]*predict.Tick
	//elsa:ephemeral derived from the open tick aggregates; recomputed on resume
	buffered int // records currently held in open ticks

	late    int64 // dropped: older than the newest closed tick, or too far ahead
	outside int64 // dropped: outside the [start, end) run window
}

// newSampler is also the first half of the resume path: ResumeSession
// rebuilds the cursor through it before overlaying the snapshot fields.
//
//elsa:snapshotter decode
func newSampler(origin time.Time, step time.Duration, limit int) *sampler {
	return &sampler{
		origin: origin,
		step:   step,
		limit:  limit,
		open:   make(map[int]*predict.Tick),
	}
}

func (s *sampler) tickStart(idx int) time.Time {
	return s.origin.Add(time.Duration(idx) * s.step)
}

// maxForwardJump is how far past the cursor an unbounded session lets one
// record stamp itself. A record beyond it is dropped as a straggler:
// sampling it would close, and materialise within that one call, every
// tick up to a collector's sentinel date (2038, 9999) — which does not
// return. The bound is a year, not minutes, because the cursor goes stale
// while the monitored machine is down: a resumed monitor must accept the
// first record after any shorter outage, or every later record would
// look "ahead" of the stale cursor too.
const maxForwardJump = 366 * 24 * time.Hour

// tooFarAhead reports whether a timestamp d past the origin is more than
// maxForwardJump past the cursor: the start of the next tick to close,
// which trails the high-water mark by less than two ticks, sits at the
// origin before the first record, and moves with advanceTo
// (authoritative). A bounded session drops such records as outside its
// window instead.
func (s *sampler) tooFarAhead(d time.Duration) bool {
	return s.limit < 0 && d-time.Duration(s.next)*s.step > maxForwardJump
}

// add folds one record in and returns the ticks its arrival closed, in
// order. ok is false when the record was dropped.
func (s *sampler) add(rec logs.Record) (ready []tickBatch, ok bool) {
	if rec.Time.Before(s.origin) {
		s.outside++
		return nil, false
	}
	d := rec.Time.Sub(s.origin)
	idx := int(d / s.step)
	if s.limit >= 0 && idx >= s.limit {
		s.outside++
		return nil, false
	}
	if idx < s.next || s.tooFarAhead(d) {
		s.late++
		return nil, false
	}
	t := s.open[idx]
	if t == nil {
		t = predict.NewTick()
		s.open[idx] = t
	}
	n0 := t.N
	t.Add(rec)
	s.buffered += t.N - n0
	if rec.Time.After(s.hw) {
		s.hw = rec.Time
	}
	// Close every tick whose grace window the high-water mark has passed:
	// tick i closes once hw >= end(i) + DefaultGraceTicks*step.
	for !s.hw.Before(s.tickStart(s.next + 1 + DefaultGraceTicks)) {
		ready = append(ready, s.closeNext())
	}
	return ready, true
}

// bump advances the high-water mark without sampling a record, closing
// any ticks whose grace window it passed. The overload-shedding path
// uses it: a flood's records are dropped, but their timestamps still
// drive tick progress so the buffer drains and shedding can stop — unless
// the timestamp is too far ahead to be believed.
func (s *sampler) bump(ts time.Time) (ready []tickBatch) {
	if ts.After(s.hw) && !s.tooFarAhead(ts.Sub(s.origin)) {
		s.hw = ts
	}
	for !s.hw.Before(s.tickStart(s.next + 1 + DefaultGraceTicks)) {
		if s.limit >= 0 && s.next >= s.limit {
			break
		}
		ready = append(ready, s.closeNext())
	}
	return ready
}

// advanceTo closes every tick that ends at or before now — the wall
// clock is authoritative, so no grace applies. Call it periodically
// during quiet spells so chain expiry keeps pace with real time.
func (s *sampler) advanceTo(now time.Time) (ready []tickBatch) {
	for {
		if s.limit >= 0 && s.next >= s.limit {
			return ready
		}
		if now.Before(s.tickStart(s.next + 1)) {
			return ready
		}
		ready = append(ready, s.closeNext())
	}
}

// flush closes everything still pending: through the run window's end
// when bounded (emitting trailing empty ticks so signal state evolves
// exactly as a full replay), or through the last tick holding records
// when unbounded.
func (s *sampler) flush() (ready []tickBatch) {
	target := s.limit
	if s.limit < 0 {
		target = s.next
		for idx := range s.open {
			if idx >= target {
				target = idx + 1
			}
		}
	}
	for s.next < target {
		ready = append(ready, s.closeNext())
	}
	return ready
}

// closeNext seals the next tick (empty if no records landed in it).
func (s *sampler) closeNext() tickBatch {
	idx := s.next
	t := s.open[idx]
	if t == nil {
		t = predict.NewTick()
	} else {
		delete(s.open, idx)
		s.buffered -= t.N
	}
	s.next++
	return tickBatch{idx: idx, start: s.tickStart(idx), end: s.tickStart(idx + 1), sample: t}
}
