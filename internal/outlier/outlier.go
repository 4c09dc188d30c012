// Package outlier implements ELSA's on-line data-cleaning filter: every
// new sample of an event signal is compared against the median of a causal
// moving window holding both the raw past values and the corrected
// replacements, and samples that deviate beyond a per-signal threshold are
// declared outliers and replaced by the median (the paper's Section III.B.1
// and Figure 3). Outliers are what the correlation and prediction stages
// consume; the replacement keeps severe faults from poisoning the window.
package outlier

import (
	"fmt"
	"math"

	"github.com/elsa-hpc/elsa/internal/sig"
)

// DefaultWindow is the number of past samples the filter keeps (6 hours at
// the 10-second sampling step; the window length is configurable up to the
// paper's two months, trading memory and latency for stability).
const DefaultWindow = 2160

// DefaultK is the threshold multiplier applied to a signal's robust spread.
const DefaultK = 3.0

// DefaultFloor is the minimum threshold. It guarantees that on silent
// signals (spread 0) any occurrence at all is flagged — exactly the paper's
// observation that for silent event types the message itself is the
// anomaly.
const DefaultFloor = 0.5

// Threshold derives the outlier threshold for a characterised signal:
// k * spread, floored. The offline phase calls this once per signal.
func Threshold(p sig.Profile, k, floor float64) float64 {
	if k <= 0 {
		k = DefaultK
	}
	if floor <= 0 {
		floor = DefaultFloor
	}
	th := k * p.Spread
	if th < floor {
		th = floor
	}
	return th
}

// Observation is the per-sample filter verdict.
type Observation struct {
	Outlier   bool
	Value     float64 // the raw sample
	Median    float64 // window median the sample was compared against
	Corrected float64 // Value, or the median when an outlier
}

// Detector filters one signal. It is not safe for concurrent use; the
// online engine owns one detector per event type.
type Detector struct {
	window    int
	threshold float64

	// ReplaceOutliers controls whether flagged samples enter the window
	// as their median replacement (the paper's scheme, default) or raw.
	// Disabling it is the ablation for the replacement strategy: long
	// fault bursts then drag the window median toward the fault level.
	ReplaceOutliers bool

	raw ring
	cor ring
	med medianWindow

	// nz[nzHead:] are the ring slots whose raw or corrected sample is not
	// +0, oldest first: the raw and corrected rings move in lockstep, so
	// one slot index names both samples, and the front slot is the next
	// non-zero one to leave (NonzeroEvictionIn).
	nz     []int32
	nzHead int
}

// NewDetector returns a detector with the given window length (samples)
// and threshold. Non-positive arguments select the defaults.
func NewDetector(window int, threshold float64) *Detector {
	if window <= 0 {
		window = DefaultWindow
	}
	if threshold <= 0 {
		threshold = DefaultFloor
	}
	return &Detector{
		window:          window,
		threshold:       threshold,
		ReplaceOutliers: true,
		raw:             newRing(window),
		cor:             newRing(window),
	}
}

// Threshold returns the configured threshold.
func (d *Detector) Threshold() float64 { return d.threshold }

// Window returns the configured window length.
func (d *Detector) Window() int { return d.window }

// Observe feeds one sample through the filter and returns the verdict.
//
// The comparison window is the paper's Vk: the last N corrected values,
// the last N raw values and the current sample itself. Samples must be
// finite: the window orders them, and NaN has no place in an order.
func (d *Detector) Observe(y float64) Observation {
	slot := d.raw.head
	d.push(&d.raw, y)
	med := d.med.median()
	out := Observation{Value: y, Median: med, Corrected: y}
	if diff := y - med; diff > d.threshold || diff < -d.threshold {
		out.Outlier = true
		if d.ReplaceOutliers {
			out.Corrected = med
		}
	}
	d.push(&d.cor, out.Corrected)
	d.track(slot, y, out.Corrected)
	return out
}

// track keeps nz in step with a push into slot: the samples the slot
// held have left, and raw and cor are its new ones.
func (d *Detector) track(slot int, raw, cor float64) {
	if d.nzHead < len(d.nz) && int(d.nz[d.nzHead]) == slot {
		d.nzHead++
	}
	if math.Float64bits(raw)|math.Float64bits(cor) == 0 {
		return
	}
	if d.nzHead > len(d.nz)/2 {
		n := copy(d.nz, d.nz[d.nzHead:])
		d.nz, d.nzHead = d.nz[:n], 0
	}
	d.nz = append(d.nz, int32(slot))
}

// push appends v to one of the rings and mirrors the change in the median
// window. A full ring that evicts the very value it takes in — the usual
// case on a count signal, which sits on one value for hours — leaves the
// multiset as it was, so the window is not touched at all.
func (d *Detector) push(r *ring, v float64) {
	old, evicted := r.push(v)
	if evicted {
		if math.Float64bits(old) == math.Float64bits(v) {
			return
		}
		d.med.remove(old)
	}
	d.med.insert(v)
}

// Skip advances the detector over n zero samples without observing them.
// It is exact — the state afterwards is the one n calls of Observe(0)
// leave — when the caller guarantees two things: every sample those n
// pushes evict is a +0 (NonzeroEvictionIn is -1 or more than n), and 0 is
// not an outlier now (ZeroIsOutlier is false). Then no skipped Observe
// flags anything, so each pushes +0 into both rings. In a full ring that
// replaces a zero with a zero and the multiset does not change. While
// the rings fill it adds zeros, and adding a zero moves the median toward
// 0, never past it, so 0 stays within the threshold. Skip therefore moves
// the ring heads over the skipped slots without writing them (they hold
// +0 already: a full ring's by the guarantee, a filling ring's because
// they were never written) and inserts the zeros the filling rings take
// in all at once.
func (d *Detector) Skip(n int) {
	if n <= 0 {
		return
	}
	fill := min(n, len(d.raw.buf)-d.raw.n)
	if n >= len(d.raw.buf) {
		n %= len(d.raw.buf) // a whole turn puts the head back
	}
	d.raw.skip(n, fill)
	d.cor.skip(n, fill)
	if fill > 0 {
		d.med.insertN(0, 2*fill)
	}
}

// NonzeroEvictionIn returns after how many further pushes the oldest
// sample that is not +0 leaves the window, or -1 when both rings hold
// only +0. A slot's raw and corrected samples leave together.
func (d *Detector) NonzeroEvictionIn() int {
	if d.nzHead == len(d.nz) {
		return -1
	}
	w, n := len(d.raw.buf), d.raw.n
	rank := int(d.nz[d.nzHead]) - (d.raw.head - n) // among the n held, oldest 0
	if rank >= w {
		rank -= w
	} else if rank < 0 {
		rank += w
	}
	return w - n + rank + 1
}

// ZeroIsOutlier reports whether a zero sample would be flagged against
// the window as it stands: whether the median lies beyond the threshold.
func (d *Detector) ZeroIsOutlier() bool {
	m := d.med.median()
	return m > d.threshold || m < -d.threshold
}

// DetectorState is the serialisable window state of a Detector: the raw
// and corrected sample windows, oldest first. It is what a monitor
// snapshot persists per dense signal so a restarted process resumes
// filtering exactly where the crashed one stopped.
type DetectorState struct {
	Raw []float64 `json:"raw,omitempty"`
	Cor []float64 `json:"cor,omitempty"`
}

// State snapshots the detector's windows.
func (d *Detector) State() DetectorState {
	return DetectorState{Raw: d.raw.values(), Cor: d.cor.values()}
}

// WindowShapeError rejects a DetectorState that State cannot have
// written: more samples than the window holds, or raw and corrected
// windows of different lengths (Observe pushes both rings, so they fill
// together).
type WindowShapeError struct {
	Raw, Cor, Window int
}

func (e *WindowShapeError) Error() string {
	if e.Raw != e.Cor {
		return fmt.Sprintf("outlier: snapshot windows differ in length (%d raw, %d cor)", e.Raw, e.Cor)
	}
	return fmt.Sprintf("outlier: snapshot windows (%d raw, %d cor) exceed detector window %d", e.Raw, e.Cor, e.Window)
}

// Restore replaces the detector's windows with a snapshot taken by
// State. Configuration (window length, threshold, replacement mode) is
// not part of the state: it comes from the model the detector was built
// from. A snapshot of a shape State never writes (a *WindowShapeError),
// or holding a sample that is not finite, is rejected and leaves the
// detector as it was.
func (d *Detector) Restore(st DetectorState) error {
	if len(st.Raw) > d.window || len(st.Cor) > d.window || len(st.Raw) != len(st.Cor) {
		return &WindowShapeError{Raw: len(st.Raw), Cor: len(st.Cor), Window: d.window}
	}
	for _, w := range [][]float64{st.Raw, st.Cor} {
		for i, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("outlier: snapshot sample %d is %v, want a finite value", i, v)
			}
		}
	}
	d.raw = newRing(d.window)
	d.cor = newRing(d.window)
	d.med = medianWindow{}
	d.nz, d.nzHead = d.nz[:0], 0
	for i, v := range st.Raw {
		d.push(&d.raw, v)
		d.push(&d.cor, st.Cor[i])
		if math.Float64bits(v)|math.Float64bits(st.Cor[i]) != 0 {
			d.nz = append(d.nz, int32(i))
		}
	}
	return nil
}

// Filter runs a fresh detector over samples and returns the outlier sample
// indices plus the corrected series. It is the batch entry point used by
// the offline phase and the experiments.
func Filter(samples []float64, window int, threshold float64) (outliers []int, corrected []float64) {
	d := NewDetector(window, threshold)
	corrected = make([]float64, len(samples))
	for i, y := range samples {
		obs := d.Observe(y)
		if obs.Outlier {
			outliers = append(outliers, i)
		}
		corrected[i] = obs.Corrected
	}
	return outliers, corrected
}

// ring is a fixed-capacity FIFO of float64.
type ring struct {
	buf  []float64
	head int // next write position
	n    int // occupancy
}

func newRing(capacity int) ring { return ring{buf: make([]float64, capacity)} }

// values returns the ring contents oldest first.
func (r *ring) values() []float64 {
	if r.n == 0 {
		return nil
	}
	out := make([]float64, 0, r.n)
	start := (r.head - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// push appends v, returning the evicted oldest value when the ring was
// full.
func (r *ring) push(v float64) (evicted float64, wasFull bool) {
	if r.n == len(r.buf) {
		evicted = r.buf[r.head]
		wasFull = true
	} else {
		r.n++
	}
	r.buf[r.head] = v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	return evicted, wasFull
}

// skip accounts pushes of slots that already hold the value pushed, fill
// of them into free slots: the head moves n (< len) slots, nothing is
// written.
func (r *ring) skip(n, fill int) {
	r.n += fill
	if r.head += n; r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
}

// medianWindow is the multiset of samples in a Detector's two rings: the
// distinct values in ascending order, each with its multiplicity, and a
// cursor on the lower median (rank (n-1)/2 of the sorted samples). The
// samples are per-tick counts in long runs of one value, so a window of
// thousands holds a handful of distinct values: insert and remove are a
// binary search over those, a count bump and at most one cursor step. A
// value's slot is created on its first copy and deleted with its last,
// so the cost is O(distinct) at worst: on a continuous signal every
// sample is a new value and each Observe pays two memmoves
// (BenchmarkObserve). median evaluates the expression of the frozen
// sortedSet reference in the package tests, so the medians are
// bit-identical to it.
//
// Invariants: vals is strictly ascending, cnt[i] > 0, n = sum(cnt),
// below = sum(cnt[:idx]), and below <= (n-1)/2 < below+cnt[idx] when
// n > 0. Values must be finite (NaN has no place in the order), and
// callers only remove values present in the multiset; Detector removes
// exactly what its rings evict.
type medianWindow struct {
	vals  []float64
	cnt   []int32
	n     int // samples held
	idx   int // slot holding the lower median
	below int // samples in slots before idx
}

// search returns the first slot whose value is >= v. It is written out
// because it runs up to four times an Observe: slices.BinarySearch's
// NaN-aware comparison measured 5 % slower on both package benchmarks.
func (m *medianWindow) search(v float64) int {
	lo, hi := 0, len(m.vals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (m *medianWindow) insert(v float64) { m.insertN(v, 1) }

// insertN adds k copies of v.
func (m *medianWindow) insertN(v float64, k int) {
	i := m.search(v)
	if i == len(m.vals) || m.vals[i] != v {
		m.vals = append(m.vals, 0)
		m.cnt = append(m.cnt, 0)
		copy(m.vals[i+1:], m.vals[i:])
		copy(m.cnt[i+1:], m.cnt[i:])
		m.vals[i], m.cnt[i] = v, 0
		if i <= m.idx && m.n > 0 {
			m.idx++
		}
	}
	m.cnt[i] += int32(k)
	m.n += k
	if i < m.idx {
		m.below += k
	}
	m.settle()
}

func (m *medianWindow) remove(v float64) {
	i := m.search(v)
	m.cnt[i]--
	m.n--
	if i < m.idx {
		m.below--
	}
	if m.cnt[i] == 0 {
		m.vals = append(m.vals[:i], m.vals[i+1:]...)
		m.cnt = append(m.cnt[:i], m.cnt[i+1:]...)
		if i < m.idx {
			m.idx--
		}
	}
	m.settle()
}

// settle walks the cursor back onto rank (n-1)/2 after one sample came
// or went — at most one slot either way, or off a deleted last slot — or
// after insertN added a run, which may carry it over several.
func (m *medianWindow) settle() {
	if m.n == 0 {
		m.idx, m.below = 0, 0
		return
	}
	r := (m.n - 1) / 2
	for m.idx == len(m.vals) || m.below > r {
		m.idx--
		m.below -= int(m.cnt[m.idx])
	}
	for m.below+int(m.cnt[m.idx]) <= r {
		m.below += int(m.cnt[m.idx])
		m.idx++
	}
}

// median returns the median of the multiset, or 0 when empty: the lower
// median for an odd count, the mean of the two middle samples otherwise.
func (m *medianWindow) median() float64 {
	if m.n == 0 {
		return 0
	}
	lower := m.vals[m.idx]
	if m.n%2 == 1 {
		return lower
	}
	upper := lower
	if m.n/2 == m.below+int(m.cnt[m.idx]) {
		upper = m.vals[m.idx+1]
	}
	return (lower + upper) / 2
}
