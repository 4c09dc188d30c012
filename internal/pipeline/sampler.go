package pipeline

import (
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
)

// tickBatch is one closed sampling tick flowing from the Sample stage to
// the OutlierFilter stage. Its sample is the sampler's slot: valid until
// the next tick closes.
type tickBatch struct {
	idx        int
	start, end time.Time
	sample     *predict.Tick
}

// slotCount is how many ticks can be open at once: a record closes the
// ticks due before it lands, so open ticks lie in [next,
// next+DefaultGraceTicks].
const slotCount = DefaultGraceTicks + 1

// slot is one recycled open-tick aggregate: tick idx while idx >= the
// sampler's next, a stale (closed) one otherwise, reset when a record or
// a close next claims it.
type slot struct {
	idx  int
	tick predict.Tick
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
// A record first advances the high-water mark and closes the ticks that
// became due, then lands in its tick, which is never among them. So the
// open ticks always lie in [next, next+DefaultGraceTicks], and tick k
// lives in slots[k%slotCount]: no tick is allocated or freed.
//
//elsa:snapshot
type sampler struct {
	origin time.Time
	step   time.Duration
	//elsa:ephemeral run-window bound is a constructor argument; resumed sessions are always unbounded
	limit int // ticks in the run window; < 0 means unbounded (live session)

	next  int // next tick index to close
	hw    time.Time
	slots [slotCount]slot
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
	s := &sampler{origin: origin, step: step, limit: limit}
	for i := range s.slots {
		s.slots[i].idx = -1
	}
	return s
}

func (s *sampler) tickStart(idx int) time.Time {
	return s.origin.Add(time.Duration(idx) * s.step)
}

// maxForwardJump is how far past the cursor an unbounded session lets one
// record stamp itself. A record beyond it is dropped as a straggler:
// sampling it would close, within that one call, every tick up to a
// collector's sentinel date (2038, 9999) — which does not return. The
// bound is a year, not minutes, because the cursor goes stale while the
// monitored machine is down: a resumed monitor must accept the first
// record after any shorter outage, or every later record would look
// "ahead" of the stale cursor too.
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

// admit classifies one record and returns its tick; ok is false when it
// was dropped. An admitted record advances the high-water mark: the
// caller closes the ticks that made due (closeDue) before it inserts the
// record.
func (s *sampler) admit(rec logs.Record) (idx int, ok bool) {
	if rec.Time.Before(s.origin) {
		s.outside++
		return 0, false
	}
	d := rec.Time.Sub(s.origin)
	idx = int(d / s.step)
	if s.limit >= 0 && idx >= s.limit {
		s.outside++
		return 0, false
	}
	if idx < s.next || s.tooFarAhead(d) {
		s.late++
		return 0, false
	}
	if rec.Time.After(s.hw) {
		s.hw = rec.Time
	}
	return idx, true
}

// insert folds an admitted record into its open tick.
//
//elsa:hotpath
func (s *sampler) insert(idx int, rec logs.Record) {
	t := s.claim(idx)
	n0 := t.N
	t.Add(rec)
	s.buffered += t.N - n0
}

// claim returns tick idx's slot, emptied first if it still held a closed
// tick.
//
//elsa:hotpath
func (s *sampler) claim(idx int) *predict.Tick {
	sl := &s.slots[idx%slotCount]
	if sl.idx != idx {
		sl.tick.Reset()
		sl.idx = idx
	}
	return &sl.tick
}

// bump advances the high-water mark without sampling a record. The
// overload-shedding path uses it: a flood's records are dropped, but
// their timestamps still drive tick progress (closeDue) so the buffer
// drains and shedding can stop — unless the timestamp is too far ahead
// to be believed.
func (s *sampler) bump(ts time.Time) {
	if ts.After(s.hw) && !s.tooFarAhead(ts.Sub(s.origin)) {
		s.hw = ts
	}
}

// The close targets: every tick before the returned index is ready to
// close. Ticks close, through Session.closeTo, in order and one at a
// time; a bounded session never closes past its window.

// closeDue is the target of the high-water mark: tick i closes once hw >=
// end(i) + DefaultGraceTicks*step.
func (s *sampler) closeDue() int {
	return s.bound(int(s.hw.Sub(s.origin)/s.step) - DefaultGraceTicks)
}

// closeBy is the target of the wall clock at now, which is authoritative:
// every tick that ends at or before now closes, without grace.
func (s *sampler) closeBy(now time.Time) int {
	return s.bound(int(now.Sub(s.origin) / s.step))
}

// closeAll is the target of a flush: through the run window's end when
// bounded (trailing empty ticks included, so signal state evolves
// exactly as a full replay), or through the last tick holding records
// when unbounded.
func (s *sampler) closeAll() int {
	if s.limit >= 0 {
		return s.limit
	}
	target := s.next
	for _, sl := range s.slots {
		if sl.idx >= target {
			target = sl.idx + 1
		}
	}
	return target
}

func (s *sampler) bound(target int) int {
	if s.limit >= 0 {
		return min(target, s.limit)
	}
	return target
}

// closeNext seals the next tick (empty if no records landed in it). Its
// slot is recycled by the next tick that claims it.
func (s *sampler) closeNext() tickBatch {
	idx := s.next
	t := s.claim(idx)
	s.buffered -= t.N
	s.next++
	return tickBatch{idx: idx, start: s.tickStart(idx), end: s.tickStart(idx + 1), sample: t}
}
