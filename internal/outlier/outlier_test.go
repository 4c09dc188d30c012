package outlier

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/elsa-hpc/elsa/internal/sig"
)

// sortedSet is the frozen pre-change median implementation: a sorted
// multiset backed by a slice with O(n) memmove insert/remove. It was
// replaced in production by medianWindow and is kept here as the
// reference the equivalence property tests compare against.
type sortedSet struct {
	xs []float64
}

func (s *sortedSet) insert(v float64) {
	i := sort.SearchFloat64s(s.xs, v)
	s.xs = append(s.xs, 0)
	copy(s.xs[i+1:], s.xs[i:])
	s.xs[i] = v
}

func (s *sortedSet) remove(v float64) {
	i := sort.SearchFloat64s(s.xs, v)
	if i < len(s.xs) && s.xs[i] == v {
		s.xs = append(s.xs[:i], s.xs[i+1:]...)
	}
}

func (s *sortedSet) median() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s.xs[n/2]
	}
	return (s.xs[n/2-1] + s.xs[n/2]) / 2
}

func (s *sortedSet) len() int { return len(s.xs) }

func TestThresholdCalibration(t *testing.T) {
	noisy := sig.Profile{Class: sig.Noise, Spread: 2}
	if got := Threshold(noisy, 3, 0.5); got != 6 {
		t.Errorf("noisy threshold = %v, want 6", got)
	}
	silent := sig.Profile{Class: sig.Silent, Spread: 0}
	if got := Threshold(silent, 3, 0.5); got != 0.5 {
		t.Errorf("silent threshold = %v, want floor 0.5", got)
	}
	if got := Threshold(noisy, 0, 0); got != 6 {
		t.Errorf("default k threshold = %v, want 6", got)
	}
}

func TestSilentSignalAnyOccurrenceIsOutlier(t *testing.T) {
	d := NewDetector(100, DefaultFloor)
	for i := 0; i < 500; i++ {
		if obs := d.Observe(0); obs.Outlier {
			t.Fatalf("zero sample flagged at %d", i)
		}
	}
	obs := d.Observe(1)
	if !obs.Outlier {
		t.Fatal("occurrence on a silent signal not flagged")
	}
	if obs.Corrected != 0 {
		t.Errorf("Corrected = %v, want 0", obs.Corrected)
	}
}

func TestSpikesDetectedInNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d := NewDetector(200, 5)
	// Warm up with noise around level 10.
	for i := 0; i < 400; i++ {
		d.Observe(10 + rng.NormFloat64())
	}
	if obs := d.Observe(10.5); obs.Outlier {
		t.Error("in-band sample flagged")
	}
	if obs := d.Observe(40); !obs.Outlier {
		t.Error("spike not flagged")
	}
}

func TestReplacementLimitsBurstInfluence(t *testing.T) {
	// A long fault burst must not drag the median up: replacements keep
	// the window anchored at the normal level.
	d := NewDetector(100, 3)
	for i := 0; i < 200; i++ {
		d.Observe(5)
	}
	flagged := 0
	for i := 0; i < 80; i++ {
		if obs := d.Observe(50); obs.Outlier {
			flagged++
		}
	}
	if flagged < 70 {
		t.Errorf("only %d/80 burst samples flagged; median drifted", flagged)
	}
}

func TestBurstLongerThanWindowStillFlaggedEarly(t *testing.T) {
	// When a burst outlasts the window the median eventually adapts (the
	// paper's replacement minimises, not eliminates, the influence of
	// sustained faults). The filter must still flag at least the first
	// half-window of burst samples before drifting.
	d := NewDetector(50, 3)
	for i := 0; i < 100; i++ {
		d.Observe(5)
	}
	flaggedPrefix := 0
	for i := 0; i < 60; i++ {
		obs := d.Observe(50)
		if i < 25 && obs.Outlier {
			flaggedPrefix++
		}
	}
	if flaggedPrefix != 25 {
		t.Errorf("flagged %d/25 early burst samples", flaggedPrefix)
	}
}

func TestObserveMedianTracksLevelShift(t *testing.T) {
	// Legitimate slow level changes must eventually pass through: after
	// the window fully turns over at the new level, samples there are
	// normal. Replacement means the corrected half converges only via
	// non-outlier samples, so approach the new level gradually.
	d := NewDetector(40, 3)
	for i := 0; i < 80; i++ {
		d.Observe(5)
	}
	// Ramp up slowly within the threshold.
	level := 5.0
	for level < 20 {
		level += 2 // below threshold 3 per step
		for i := 0; i < 50; i++ {
			d.Observe(level)
		}
	}
	if obs := d.Observe(21); obs.Outlier {
		t.Errorf("sample near new level flagged; median = %v", obs.Median)
	}
}

func TestFilterBatch(t *testing.T) {
	samples := make([]float64, 300)
	for i := range samples {
		samples[i] = 4
	}
	samples[150] = 100
	samples[200] = 90
	outliers, corrected := Filter(samples, 100, 3)
	if len(outliers) != 2 || outliers[0] != 150 || outliers[1] != 200 {
		t.Errorf("outliers = %v", outliers)
	}
	if corrected[150] != 4 || corrected[200] != 4 {
		t.Errorf("corrected spikes = %v, %v", corrected[150], corrected[200])
	}
	if corrected[10] != 4 {
		t.Errorf("normal sample changed: %v", corrected[10])
	}
}

func TestFilterEmptyAndDefaults(t *testing.T) {
	outliers, corrected := Filter(nil, 0, 0)
	if outliers != nil || len(corrected) != 0 {
		t.Error("empty input should yield empty output")
	}
	d := NewDetector(0, 0)
	if d.Window() != DefaultWindow || d.Threshold() != DefaultFloor {
		t.Error("defaults not applied")
	}
}

func TestFirstSampleNeverOutlier(t *testing.T) {
	d := NewDetector(10, 0.5)
	if obs := d.Observe(100); obs.Outlier {
		t.Error("first sample compared against itself should not be an outlier")
	}
}

func TestRing(t *testing.T) {
	r := newRing(3)
	if _, full := r.push(1); full {
		t.Error("push into empty ring reported eviction")
	}
	r.push(2)
	r.push(3)
	old, full := r.push(4)
	if !full || old != 1 {
		t.Errorf("eviction = %v, %v; want 1, true", old, full)
	}
	old, _ = r.push(5)
	if old != 2 {
		t.Errorf("second eviction = %v, want 2", old)
	}
}

func TestSortedSet(t *testing.T) {
	var s sortedSet
	for _, v := range []float64{5, 1, 3, 3, 2} {
		s.insert(v)
	}
	if s.len() != 5 {
		t.Fatalf("len = %d", s.len())
	}
	if got := s.median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	s.remove(3)
	if s.len() != 4 || s.median() != 2.5 {
		t.Errorf("after remove: len=%d median=%v", s.len(), s.median())
	}
	s.remove(99) // absent value is a no-op
	if s.len() != 4 {
		t.Error("removing absent value changed the set")
	}
	var empty sortedSet
	if empty.median() != 0 {
		t.Error("empty median should be 0")
	}
}

func TestDetectorWindowBounded(t *testing.T) {
	d := NewDetector(50, 1)
	for i := 0; i < 10000; i++ {
		d.Observe(float64(i % 7))
	}
	if got := d.med.n; got > 100 {
		t.Errorf("median window grew to %d live entries, want <= 2*window", got)
	}
}

// checkWindow asserts medianWindow's documented invariants.
func checkWindow(t testing.TB, m *medianWindow) {
	t.Helper()
	if len(m.vals) != len(m.cnt) {
		t.Fatalf("%d values, %d counts", len(m.vals), len(m.cnt))
	}
	n, below := 0, 0
	for i, c := range m.cnt {
		if c <= 0 {
			t.Fatalf("slot %d (value %v) has count %d", i, m.vals[i], c)
		}
		if i > 0 && !(m.vals[i-1] < m.vals[i]) {
			t.Fatalf("values not strictly ascending at slot %d: %v, %v", i, m.vals[i-1], m.vals[i])
		}
		if i < m.idx {
			below += int(c)
		}
		n += int(c)
	}
	if n != m.n || below != m.below {
		t.Fatalf("n=%d below=%d, slots hold n=%d below=%d", m.n, m.below, n, below)
	}
	if r := (n - 1) / 2; n > 0 && !(m.below <= r && r < m.below+int(m.cnt[m.idx])) {
		t.Fatalf("cursor slot %d covers ranks [%d,%d), median rank is %d", m.idx, m.below, m.below+int(m.cnt[m.idx]), r)
	}
}

// servedSeries are the sample shapes the online engine actually feeds a
// Detector: per-tick integer counts (constant, sparse, bursty, drifting)
// and the non-integer residuals of a periodic signal against its
// baseline, next to the continuous noise the older tests use.
var servedSeries = []struct {
	name string
	gen  func(rng *rand.Rand, i int) float64
}{
	{"constant", func(*rand.Rand, int) float64 { return 0 }},
	{"sparse", func(rng *rand.Rand, _ int) float64 {
		if rng.Intn(25) == 0 { // 4 % of ticks carry a message or three
			return float64(1 + rng.Intn(3))
		}
		return 0
	}},
	{"bursty", func(rng *rand.Rand, i int) float64 {
		if i%500 >= 470 {
			return float64(20 + rng.Intn(60))
		}
		return float64(rng.Intn(2))
	}},
	{"drifting", func(rng *rand.Rand, i int) float64 { return float64(i/40 + rng.Intn(3)) }},
	{"periodic-residual", func(rng *rand.Rand, i int) float64 {
		baseline := [...]float64{0.1, 2.7, 0.1, 0.3, 5.9, 0.1}
		c := 0.0
		if i%6 == 1 || i%6 == 4 {
			c = float64(3 + rng.Intn(3))
		}
		return c - baseline[i%6]
	}},
	{"gaussian", func(rng *rand.Rand, _ int) float64 {
		v := 8 + rng.NormFloat64()*1.5
		if rng.Intn(29) == 0 {
			v += 40
		}
		return v
	}},
}

var servedWindows = []int{1, 2, 3, 64, DefaultWindow}

// TestMedianWindowMatchesSortedSet drives the multiplicity window and the
// frozen sorted-slice reference through identical streams — random
// insert/remove of coarse values, then every served series sliding
// through every served window length for three windows — and requires
// bit-identical medians and intact invariants after every operation
// (removals always of present values, as the Detector guarantees).
func TestMedianWindowMatchesSortedSet(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m medianWindow
		var ref sortedSet
		var present []float64
		for op := 0; op < 3000; op++ {
			if len(present) == 0 || rng.Intn(3) != 0 {
				// Coarse quantization forces duplicate values, the
				// regime where cursor bookkeeping bugs hide.
				v := float64(rng.Intn(20)) / 4
				m.insert(v)
				ref.insert(v)
				present = append(present, v)
			} else {
				i := rng.Intn(len(present))
				v := present[i]
				present[i] = present[len(present)-1]
				present = present[:len(present)-1]
				m.remove(v)
				ref.remove(v)
			}
			checkWindow(t, &m)
			if m.n != ref.len() {
				t.Fatalf("seed %d op %d: len %d vs reference %d", seed, op, m.n, ref.len())
			}
			if got, want := m.median(), ref.median(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d op %d: median %v vs reference %v", seed, op, got, want)
			}
		}
	}
	for _, s := range servedSeries {
		for _, window := range servedWindows {
			rng := rand.New(rand.NewSource(int64(window)))
			var m medianWindow
			var ref sortedSet
			xs := make([]float64, 3*window+5)
			for i := range xs {
				xs[i] = s.gen(rng, i)
				if i >= window {
					m.remove(xs[i-window])
					ref.remove(xs[i-window])
				}
				m.insert(xs[i])
				ref.insert(xs[i])
				checkWindow(t, &m)
				if got, want := m.median(), ref.median(); m.n != ref.len() || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s window %d sample %d: median %v of %d vs reference %v of %d",
						s.name, window, i, got, m.n, want, ref.len())
				}
			}
		}
	}
}

// TestMedianWindowCompactsDrift pins the memory bound: the window stores
// exactly one slot per distinct live value, so a monotonically drifting
// signal, whose every sample is a value never seen before, holds window
// slots however long the stream runs, and a signal that settles on one
// value falls back to one slot.
func TestMedianWindowCompactsDrift(t *testing.T) {
	var m medianWindow
	const window = 64
	live := map[float64]int{}
	slide := func(in, out float64) {
		m.insert(in)
		live[in]++
		if live[out]--; live[out] == 0 {
			delete(live, out)
		}
		m.remove(out)
		if len(m.vals) > len(live) || len(m.cnt) > len(live) {
			t.Fatalf("%d value and %d count slots stored for %d distinct live values", len(m.vals), len(m.cnt), len(live))
		}
	}
	for i := 0; i < window; i++ {
		m.insert(float64(i))
		live[float64(i)]++
	}
	for i := window; i < 100000; i++ {
		slide(float64(i), float64(i-window))
	}
	if m.n != window || len(m.vals) != window {
		t.Fatalf("drifting: %d samples in %d slots, want %d in %d", m.n, len(m.vals), window, window)
	}
	for i := 100000; i < 100000+window; i++ {
		slide(7, float64(i-window))
	}
	if m.n != window || len(m.vals) != 1 {
		t.Fatalf("settled: %d samples in %d slots, want %d in 1", m.n, len(m.vals), window)
	}
}

// refDetector is Detector.Observe reimplemented on the frozen sortedSet:
// every push removes what its ring evicts and inserts what it takes in,
// whatever the two values are.
type refDetector struct {
	threshold float64
	raw, cor  ring
	sorted    sortedSet
	// unchanged counts the pushes into a full ring that evicted the very
	// bits they pushed: the ones the production Detector leaves the
	// median window alone for.
	unchanged int
}

func newRefDetector(window int, threshold float64) *refDetector {
	return &refDetector{threshold: threshold, raw: newRing(window), cor: newRing(window)}
}

func (r *refDetector) push(ring *ring, v float64) {
	if old, evicted := ring.push(v); evicted {
		if math.Float64bits(old) == math.Float64bits(v) {
			r.unchanged++
		}
		r.sorted.remove(old)
	}
	r.sorted.insert(v)
}

func (r *refDetector) observe(v float64) Observation {
	r.push(&r.raw, v)
	med := r.sorted.median()
	want := Observation{Value: v, Median: med, Corrected: v}
	if diff := v - med; diff > r.threshold || diff < -r.threshold {
		want.Outlier = true
		want.Corrected = med
	}
	r.push(&r.cor, want.Corrected)
	return want
}

// sameObservation is bit equality: == would let a median of the wrong
// zero sign, or a NaN, through.
func sameObservation(a, b Observation) bool {
	return a.Outlier == b.Outlier &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.Median) == math.Float64bits(b.Median) &&
		math.Float64bits(a.Corrected) == math.Float64bits(b.Corrected)
}

// TestDetectorMatchesSortedSetReference runs a full production Detector
// against the reference detector on every served series at every served
// window length, through warm-up and three further windows of eviction,
// and requires bit-identical observations. Every series but the
// continuous one must also have exercised the path where the evicted
// sample equals the pushed one and the window is left untouched.
func TestDetectorMatchesSortedSetReference(t *testing.T) {
	for _, s := range servedSeries {
		for _, window := range servedWindows {
			for _, threshold := range []float64{DefaultFloor, 2} {
				rng := rand.New(rand.NewSource(100 + int64(window)))
				d := NewDetector(window, threshold)
				r := newRefDetector(window, threshold)
				outliers := 0
				for i := 0; i < 4*window+5; i++ {
					v := s.gen(rng, i)
					got, want := d.Observe(v), r.observe(v)
					if !sameObservation(got, want) {
						t.Fatalf("%s window %d threshold %v sample %d: %+v vs reference %+v",
							s.name, window, threshold, i, got, want)
					}
					if got.Outlier {
						outliers++
					}
				}
				checkWindow(t, &d.med)
				if s.name != "gaussian" && r.unchanged == 0 {
					t.Errorf("%s window %d threshold %v: no push evicted the value it pushed; the skip path went untested",
						s.name, window, threshold)
				}
				if window == DefaultWindow && s.name != "constant" && outliers == 0 {
					t.Errorf("%s window %d threshold %v: no outlier flagged; the correction path went untested",
						s.name, window, threshold)
				}
			}
		}
	}
}

// FuzzDetectorMatchesSortedSet is the same differential on an arbitrary
// stream: the first two bytes pick the window length and threshold, every
// further byte is one sample on a quarter-integer grid (so values repeat
// and the skip path is reachable).
func FuzzDetectorMatchesSortedSet(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 8, 0, 0})
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{63, 9, 0, 200, 0, 200, 0, 200, 0, 200, 100, 100, 100})
	f.Add(append([]byte{1, 1}, make([]byte, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		window := 1 + int(data[0])%96
		threshold := DefaultFloor + float64(data[1]%16)/4
		d := NewDetector(window, threshold)
		r := newRefDetector(window, threshold)
		for i, b := range data[2:] {
			v := float64(int8(b)) / 4
			if got, want := d.Observe(v), r.observe(v); !sameObservation(got, want) {
				t.Fatalf("window %d threshold %v sample %d (%v): %+v vs reference %+v", window, threshold, i, v, got, want)
			}
			checkWindow(t, &d.med)
		}
	})
}

// countSeries is a deterministic sparse count signal: zero, with one to
// three messages on every 25th tick (4 % of ticks).
func countSeries(i int) float64 {
	if i%25 == 0 {
		return float64(1 + (i/25)%3)
	}
	return 0
}

// TestObserveWarmZeroAlloc pins that a warm detector on a count signal
// allocates nothing: slots come and go, but inside the capacity the
// warm-up grew.
func TestObserveWarmZeroAlloc(t *testing.T) {
	d := NewDetector(64, DefaultFloor)
	i := 0
	for ; i < 64*4; i++ {
		d.Observe(countSeries(i))
	}
	if got := testing.AllocsPerRun(1000, func() {
		d.Observe(countSeries(i))
		i++
	}); got != 0 {
		t.Errorf("Observe on a warm count-valued detector allocates %v times per call, want 0", got)
	}
}

func BenchmarkObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := NewDetector(DefaultWindow, 3)
	for i := 0; i < DefaultWindow*2; i++ {
		d.Observe(10 + rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(10 + rng.NormFloat64())
	}
}

// BenchmarkObserveCounts is the served distribution: a sparse integer
// count signal on a full default window (BenchmarkObserve's continuous
// Gaussians, every sample a new distinct value, are the worst case).
func BenchmarkObserveCounts(b *testing.B) {
	d := NewDetector(DefaultWindow, DefaultFloor)
	for i := 0; i < DefaultWindow*2; i++ {
		d.Observe(countSeries(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(countSeries(i))
	}
}

// TestDetectorStateRoundTrip proves the crash-resume contract: a
// detector restored from a snapshot produces bit-identical verdicts to
// the uninterrupted original on any continuation stream.
func TestDetectorStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, warm := range []int{0, 1, 17, 64, 200} {
		a := NewDetector(64, 2)
		for i := 0; i < warm; i++ {
			a.Observe(5 + rng.NormFloat64()*2)
		}
		b := NewDetector(64, 2)
		if err := b.Restore(a.State()); err != nil {
			t.Fatalf("warm %d: Restore: %v", warm, err)
		}
		for i := 0; i < 300; i++ {
			v := 5 + rng.NormFloat64()*2
			if i%37 == 0 {
				v += 50 // inject outliers so correction paths diverge if wrong
			}
			oa := a.Observe(v)
			ob := b.Observe(v)
			if oa != ob {
				t.Fatalf("warm %d, sample %d: original %+v vs restored %+v", warm, i, oa, ob)
			}
		}
	}
}

func TestDetectorRestoreRejectsOversizedSnapshot(t *testing.T) {
	d := NewDetector(4, 1)
	err := d.Restore(DetectorState{Raw: []float64{1, 2, 3, 4, 5}})
	if err == nil {
		t.Fatal("oversized snapshot accepted")
	}
}

// TestDetectorRestoreRejectsNonFiniteSnapshot forges the states an
// exported struct lets anyone build: a NaN or infinite sample would break
// the window's ordering, so Restore refuses it and keeps what it had.
func TestDetectorRestoreRejectsNonFiniteSnapshot(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, st := range []DetectorState{
			{Raw: []float64{1, bad}, Cor: []float64{1, 1}},
			{Raw: []float64{1, 1}, Cor: []float64{bad, 1}},
		} {
			d := NewDetector(4, 1)
			d.Observe(3)
			before := d.State()
			if err := d.Restore(st); err == nil {
				t.Fatalf("snapshot with sample %v accepted", bad)
			}
			if after := d.State(); !reflect.DeepEqual(after, before) {
				t.Fatalf("rejected snapshot changed the detector: %+v -> %+v", before, after)
			}
			if obs := d.Observe(3); obs.Median != 3 {
				t.Fatalf("detector unusable after a rejected snapshot: %+v", obs)
			}
		}
	}
}
