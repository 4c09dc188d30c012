package predict

import (
	"math"
	"slices"
	"time"

	"github.com/elsa-hpc/elsa/internal/outlier"
)

// denseFilter is one dense event's online outlier filter. A periodic
// signal is scored on its residual against baseline, the per-phase
// profile learned in training; baseline is nil for every other class,
// and for a periodic signal whose baseline is all zero (c − 0 is c).
//
// Calls of DetectOutliers are the filter stage's clock. The detector's
// windows hold every sample up to call last; each call since pushed a
// zero that could change nothing, and the next visit replays them.
type denseFilter struct {
	id       int
	det      outlier.Detector
	baseline []float64

	last    int  // call of the latest push the windows hold
	evictAt int  // call whose push evicts the oldest non-zero sample, or never
	hot     bool // 0 is an outlier against the window
}

// never is the due call of an event that is not coming.
const never = math.MaxInt

// due is the first call the filter must be visited on even without a
// count: its next non-zero eviction, or every call (0) while it is hot
// or scored against a baseline, whose residual on a quiet tick need not
// be 0.
func (d *denseFilter) due() int {
	if d.hot || d.baseline != nil {
		return 0
	}
	return d.evictAt
}

// residual is the sample the tick's count c of the filter's event feeds
// its detector. Periodic signals are scored on their phase residual,
// anchored to the training epoch (sinceTrain is the tick's distance from
// it in steps), so scheduled beats pass.
//
//elsa:hotpath
func (d *denseFilter) residual(c, sinceTrain int) float64 {
	v := float64(c)
	if n := len(d.baseline); n > 0 {
		v -= d.baseline[mod(sinceTrain, n)]
	}
	return v
}

func mod(a, n int) int {
	if a %= n; a < 0 {
		a += n
	}
	return a
}

// filterScan is the filter stage's per-call state: the clock, and dense
// tables parallel to Engine.detectors that one call reads front to back.
type filterScan struct {
	clock  int   // DetectOutliers calls so far
	due    []int // each filter's due(), kept current by every visit
	counts []int // scratch: the call's count of each filter's event
	ids    []int // scratch: the call's hit event ids
	hits   []Hit // the call's hits, returned to the caller
}

// DetectOutliers runs the filtering stage for one tick: dense detectors
// observe their value, sparse events pass through, and the hit set is
// sorted for deterministic matching. The pipeline's filter stage and the
// benchmark's layered driver both call it, once per tick, in tick order.
// The hits are the engine's: valid until the next call.
//
// Every detector takes one sample a call, but only the ones whose state
// can change are visited (DESIGN.md §8 "Visiting only what can change"):
// the events the tick counted, and the filters whose due call has come —
// a non-zero sample leaving the window, a baseline to score against, or a
// window against which 0 is itself an outlier. Any other detector would
// take a zero into windows that evict a zero, which flags nothing and
// changes nothing, and its next visit replays those zeros in one Skip.
//
// A call that panics part-way (the pipeline recovers and goes on) leaves
// the filters it had not reached as the every-detector loop did: without
// the call's sample.
func (e *Engine) DetectOutliers(t *Tick, tickStart time.Time) []Hit {
	s := &e.scan
	now := s.clock
	s.clock++
	at := 0 // the filter being visited; len(e.detectors) once past them all
	defer func() {
		if at < len(e.detectors) {
			e.missed(at, now)
		}
	}()
	since := int(tickStart.Sub(e.model.TrainStart) / e.cfg.Step)

	clear(s.counts)
	ids := s.ids[:0]
	for _, c := range t.Counts.All() {
		if i := e.detector(c.ID); i >= 0 {
			s.counts[i] = c.N
		} else {
			ids = append(ids, c.ID)
		}
	}
	for i, c := range s.counts {
		if c == 0 && s.due[i] > now {
			continue
		}
		at = i
		if e.visit(i, c, now, since) {
			ids = append(ids, e.detectors[i].id)
		}
	}
	at = len(e.detectors)

	s.ids = ids
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	hits := s.hits[:0]
	for _, id := range ids {
		hits = append(hits, Hit{Event: id, Loc: t.FirstLoc(id)})
	}
	s.hits = hits
	return hits
}

// visit catches filter i up over the calls it was not visited on,
// observes count c and reports whether the call is an outlier occurrence
// of its event. A zero residual — no count, or exactly the phase's
// baseline — over a window that evicts a zero and holds 0 within the
// threshold changes nothing and is left to the next Skip like any other.
func (e *Engine) visit(i, c, now, since int) bool {
	d := &e.detectors[i]
	v := d.residual(c, since)
	if math.Float64bits(v) == 0 && d.evictAt > now && !d.hot {
		return false
	}
	d.det.Skip(now - d.last - 1)
	d.last = now - 1
	obs := d.det.Observe(v)
	d.last = now
	d.evictAt = never
	if k := d.det.NonzeroEvictionIn(); k >= 0 {
		d.evictAt = now + k
	}
	d.hot = d.det.ZeroIsOutlier()
	e.scan.due[i] = d.due()
	return obs.Outlier && c > 0
}

// missed settles call now after it panicked while visiting filter from.
// The filters from there on that did not take the call's sample lost it,
// as they did in the every-detector loop: each one's clock moves a call
// later, so its windows and its next eviction stay in step and the next
// Skip crosses only zeros.
func (e *Engine) missed(from, now int) {
	for i := from; i < len(e.detectors); i++ {
		d := &e.detectors[i]
		if d.last == now {
			continue
		}
		d.last++
		if d.evictAt != never {
			d.evictAt++
		}
		e.scan.due[i] = d.due()
	}
}

// catchUp brings filter d's windows up to the latest call, so State
// writes what a filter visited on every call holds.
func (e *Engine) catchUp(d *denseFilter) {
	d.det.Skip(e.scan.clock - 1 - d.last)
	d.last = e.scan.clock - 1
}

// restored re-derives filter i's eviction and hot state after Restore
// replaced its windows, which are then current.
func (e *Engine) restored(i int) {
	d := &e.detectors[i]
	d.last = e.scan.clock - 1
	d.evictAt = never
	if k := d.det.NonzeroEvictionIn(); k >= 0 {
		d.evictAt = d.last + k
	}
	d.hot = d.det.ZeroIsOutlier()
	e.scan.due[i] = d.due()
}
