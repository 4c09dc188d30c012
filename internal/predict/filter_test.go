package predict

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/bench"
	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/outlier"
	"github.com/elsa-hpc/elsa/internal/sig"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// eagerDetectOutliers is the frozen filter stage from before detectors
// were visited lazily: every dense detector observes every tick, a count
// or a zero, and the tick's other events are sparse hits. It drives the
// detectors of an engine that never runs DetectOutliers itself, so that
// engine's State and Restore read and write these windows.
func eagerDetectOutliers(e *Engine, t *Tick, tickStart time.Time) []Hit {
	var hits []Hit
	for _, c := range t.Counts.All() {
		if e.detector(c.ID) < 0 {
			hits = append(hits, Hit{Event: c.ID, Loc: t.FirstLoc(c.ID)})
		}
	}
	sinceTrain := int(tickStart.Sub(e.model.TrainStart) / e.cfg.Step)
	for i := range e.detectors {
		d := &e.detectors[i]
		c := t.Counts.Of(d.id)
		v := float64(c)
		if n := len(d.baseline); n > 0 {
			phase := sinceTrain % n
			if phase < 0 {
				phase += n
			}
			v -= d.baseline[phase]
		}
		if d.det.Observe(v).Outlier && c > 0 {
			hits = append(hits, Hit{Event: d.id, Loc: t.FirstLoc(d.id)})
		}
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a].Event < hits[b].Event })
	return hits
}

// filterFixture is a model and a stream of ticks to filter with it.
type filterFixture struct {
	model *correlate.Model
	start time.Time   // first tick's start
	ticks []*Tick     // in stream order
	skip  map[int]int // tick index -> ticks the stream jumps over before it
}

// tickStart returns the start of the k-th tick of the stream.
func (f *filterFixture) tickStart(k int) time.Time {
	jumped := 0
	for at, n := range f.skip {
		if at <= k {
			jumped += n
		}
	}
	return f.start.Add(time.Duration(k+jumped) * f.model.Step)
}

// generatedFixture trains a hybrid model on a day of profile p and bins
// the next ticks ticks of the log into a stream.
func generatedFixture(p gen.Profile, seed int64, ticks int) *filterFixture {
	cut := t0.Add(24 * time.Hour)
	res := gen.New(p, seed).Generate(t0, 24*time.Hour+time.Duration(ticks)*sig.DefaultStep)
	helo.New(0).Assign(res.Records)
	train, test, _ := res.Split(cut)
	model := correlate.Train(train, t0, cut, correlate.Hybrid, correlate.DefaultConfig())
	f := &filterFixture{model: model, start: cut, ticks: make([]*Tick, ticks)}
	for i := range f.ticks {
		f.ticks[i] = NewTick()
	}
	for _, r := range test {
		if k := int(r.Time.Sub(cut) / model.Step); k >= 0 && k < ticks {
			f.ticks[k].Add(r)
		}
	}
	return f
}

// syntheticFixture is a hand-built model whose periodic baselines are
// fractional (so residuals are negative and non-integer), one of them
// all zero, next to a count signal that sits at four or five messages a
// tick for five hours and then falls silent — its window's median is far
// from 0, so the zeros are outliers and the filter is hot until they
// fill half the window — and a silent signal. The stream
// jumps over ticks twice, as a filter stage behind a tripped breaker
// does.
func syntheticFixture(ticks int) *filterFixture {
	model := &correlate.Model{
		Mode:       correlate.Hybrid,
		Step:       10 * time.Second,
		TrainStart: t0.Add(-7 * 10 * time.Second),
		Profiles: map[int]sig.Profile{
			0: {Class: sig.Periodic, Period: 6, Baseline: []float64{0.5, 0, 2.25, 0, 0, 1}},
			1: {Class: sig.Periodic, Period: 4, Baseline: []float64{0, 0, 0, 3}},
			2: {Class: sig.Noise},
			3: {Class: sig.Silent},
			4: {Class: sig.Periodic, Period: 5, Baseline: []float64{0, 0, 0, 0, 0}},
			5: {Class: sig.Noise},
		},
		Thresholds: map[int]float64{0: 0.75, 1: 1.5, 2: 0.5, 3: 0.5, 4: 0.5, 5: 2},
		Severity:   map[int]logs.Severity{},
	}
	rng := rand.New(rand.NewSource(5))
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	f := &filterFixture{model: model, start: t0, ticks: make([]*Tick, ticks), skip: map[int]int{900: 3, 3100: 11}}
	for k := range f.ticks {
		tk := NewTick()
		add := func(ev, n int) {
			for ; n > 0; n-- {
				tk.Add(logs.Record{EventID: ev, Location: node})
			}
		}
		if rng.Intn(4) > 0 {
			add(0, int(model.Profiles[0].Baseline[(k+7)%6]+0.5)+rng.Intn(2))
		}
		if (k+7)%4 == 3 && rng.Intn(10) > 0 {
			add(1, 3)
		}
		if rng.Intn(30) == 0 {
			add(2, 1+rng.Intn(3))
		}
		if rng.Intn(200) == 0 {
			add(3, 1)
		}
		if rng.Intn(50) == 0 {
			add(4, 1)
		}
		if k < 1800 {
			add(5, 4+rng.Intn(2))
		}
		f.ticks[k] = tk
	}
	return f
}

var (
	fixturesOnce              sync.Once
	bglFix, bgl200Fix, synFix *filterFixture
)

// fixtures builds the three streams once per test binary: 4 400 ticks
// (about 12 h) each, so the windows (2 160 ticks) fill, turn over, and
// evict most of what the stream pushed while they filled.
func fixtures() (bgl, bgl200, syn *filterFixture) {
	fixturesOnce.Do(func() {
		bglFix = generatedFixture(gen.BlueGeneL(), 11, 4400)
		bgl200Fix = generatedFixture(bench.ScaledBGL(200), 12, 4400)
		synFix = syntheticFixture(4400)
	})
	return bglFix, bgl200Fix, synFix
}

func stateJSON(t testing.TB, e *Engine) []byte {
	t.Helper()
	b, err := json.Marshal(e.State())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// roundTrip returns e's state through its wire form, as a resumed
// monitor reads it.
func roundTrip(t testing.TB, e *Engine) *EngineState {
	t.Helper()
	var st EngineState
	if err := json.Unmarshal(stateJSON(t, e), &st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func restoredEngine(t testing.TB, model *correlate.Model, cfg Config, st *EngineState) *Engine {
	t.Helper()
	e := NewEngine(model, nil, cfg)
	if err := e.Restore(st); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLazyFilterMatchesEager holds DetectOutliers to the frozen every-
// detector loop on the BG/L and bgl200 generator streams and the
// synthetic one: the same hit set on every tick, and the same
// Engine.State JSON on every 97th tick and on every tick around the
// windows' fill-to-full turn (2 160). Each stream runs three times. The
// first run is uninterrupted. In the second the lazy engine is resumed
// from its own snapshot once while the windows fill and once when they
// are full, and then both engines are resumed from a snapshot that lost
// a third of its detectors, whose windows stay as they were. In the third
// both engines panic part-way through a tick at those three points.
func TestLazyFilterMatchesEager(t *testing.T) {
	bgl, bgl200, syn := fixtures()
	cfg := DefaultConfig()
	for _, c := range []struct {
		name string
		f    *filterFixture
	}{{"bgl", bgl}, {"bgl200", bgl200}, {"synthetic", syn}} {
		for _, mode := range []string{"straight", "resumed", "panicked"} {
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				compareWithEager(t, c.f, cfg, mode)
			})
		}
	}
}

// firstObserved returns the position of the first filter that observes
// the tick's sample in both loops — its residual is not 0 — or -1.
func firstObserved(e *Engine, tk *Tick, tickStart time.Time) int {
	since := int(tickStart.Sub(e.model.TrainStart) / e.cfg.Step)
	for i := range e.detectors {
		d := &e.detectors[i]
		if d.residual(tk.Counts.Of(d.id), since) != 0 {
			return i
		}
	}
	return -1
}

// panicking runs detect with filter i's detector swapped for a zero one,
// which panics before it changes anything, and puts it back. It reports
// whether detect panicked.
func panicking(e *Engine, i int, detect func()) (panicked bool) {
	saved := e.detectors[i].det
	e.detectors[i].det = outlier.Detector{}
	defer func() {
		e.detectors[i].det = saved
		panicked = recover() != nil
	}()
	detect()
	return false
}

func compareWithEager(t *testing.T, f *filterFixture, cfg Config, mode string) {
	lazy, eager := NewEngine(f.model, nil, cfg), NewEngine(f.model, nil, cfg)
	if len(lazy.detectors) == 0 {
		t.Fatal("the fixture model has no dense detectors")
	}
	hits, hot, panics, armed := 0, 0, 0, false
	for k, tk := range f.ticks {
		ts := f.tickStart(k)
		switch interrupt := k == 1000 || k == 2500 || k == 3300; {
		case mode == "panicked":
			armed = armed || interrupt
		case mode != "resumed":
		case k == 1000, k == 2500: // mid-fill, mid-full
			lazy = restoredEngine(t, f.model, cfg, roundTrip(t, lazy))
		case k == 3300:
			st := roundTrip(t, lazy)
			if !reflect.DeepEqual(st, roundTrip(t, eager)) {
				t.Fatalf("tick %d: states differ before the partial resume", k)
			}
			for i, d := range lazy.detectors {
				if i%3 == 0 {
					delete(st.Detectors, d.id)
				}
			}
			lazy, eager = restoredEngine(t, f.model, cfg, st), restoredEngine(t, f.model, cfg, st)
		}
		// An armed run panics on the first tick a filter observes in both
		// loops; the filters after it lose the tick's sample in both.
		if i := firstObserved(lazy, tk, ts); armed && i >= 0 {
			armed = false
			if !panicking(lazy, i, func() { lazy.DetectOutliers(tk, ts) }) ||
				!panicking(eager, i, func() { eagerDetectOutliers(eager, tk, ts) }) {
				t.Fatalf("tick %d: poisoned filter %d did not panic in both loops", k, i)
			}
			panics++
			if !bytes.Equal(stateJSON(t, lazy), stateJSON(t, eager)) {
				t.Fatalf("tick %d: engine state differs from the every-detector loop's after a panic", k)
			}
			continue
		}
		got, want := lazy.DetectOutliers(tk, ts), eagerDetectOutliers(eager, tk, ts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: hits %v, want %v", k, got, want)
		}
		hits += len(got)
		for _, d := range lazy.detectors {
			if d.hot {
				hot++
			}
		}
		if k%97 == 0 || (k >= 2150 && k <= 2170) {
			if !bytes.Equal(stateJSON(t, lazy), stateJSON(t, eager)) {
				t.Fatalf("tick %d: engine state differs from the every-detector loop's", k)
			}
		}
	}
	if hits == 0 {
		t.Fatal("the stream raised no hit: nothing was compared")
	}
	if f == synFix && hot == 0 {
		t.Fatal("no filter turned hot: the every-call visits went untested")
	}
	if mode == "panicked" && panics != 3 {
		t.Fatalf("%d panicked ticks, want 3", panics)
	}
}

// visitedShare runs f's stream through a fresh engine and returns the
// share of detector-ticks on which DetectOutliers observed a sample, and
// how many of its detectors are scored against a baseline.
func visitedShare(f *filterFixture) (share float64, baselines int) {
	e := NewEngine(f.model, nil, DefaultConfig())
	visits := 0
	for k, tk := range f.ticks {
		e.DetectOutliers(tk, f.tickStart(k))
		for _, d := range e.detectors {
			if d.last == k {
				visits++
			}
		}
	}
	for _, d := range e.detectors {
		if d.baseline != nil {
			baselines++
		}
	}
	return float64(visits) / float64(len(f.ticks)*len(e.detectors)), baselines
}

// TestFilterVisitsOnlyDueDetectors pins what the lazy filter stage is
// for: on the bgl200 stream (170 detectors, nearly all periodic) it
// observes a sample on at most 15 % of the detector-ticks, not all of
// them.
func TestFilterVisitsOnlyDueDetectors(t *testing.T) {
	_, bgl200, _ := fixtures()
	share, baselines := visitedShare(bgl200)
	t.Logf("bgl200: observed %.1f %% of detector-ticks; %d detectors scored against a baseline", 100*share, baselines)
	if share > 0.15 {
		t.Fatalf("visited %.1f %% of detector-ticks, want at most 15 %%", 100*share)
	}
}

// fuzzModel builds a model from three bytes: a periodic signal whose
// period, non-zero phases and quarter-integer beat height the bytes
// pick, a second periodic signal with a fractional beat, a count signal
// with a byte-picked threshold, and a silent signal.
func fuzzModel(a, b, c byte) *correlate.Model {
	n := 1 + int(a%6)
	base := make([]float64, n)
	for p := range base {
		if b>>p&1 == 1 {
			base[p] = 0.25 * float64(1+c%12)
		}
	}
	return &correlate.Model{
		Mode:       correlate.Hybrid,
		Step:       10 * time.Second,
		TrainStart: t0.Add(-time.Duration(a>>3) * 10 * time.Second),
		Profiles: map[int]sig.Profile{
			0: {Class: sig.Periodic, Period: n, Baseline: base},
			1: {Class: sig.Periodic, Period: 3, Baseline: []float64{0, 1.5, 0}},
			2: {Class: sig.Noise},
			3: {Class: sig.Silent},
		},
		Thresholds: map[int]float64{0: 0.5 + float64(c>>4)/4, 1: 1, 2: 0.5 + float64(b>>6), 3: 0.5},
		Severity:   map[int]logs.Severity{},
	}
}

// FuzzLazyFilterMatchesEager is the differential on an arbitrary stream:
// the first byte picks the window length (1 to 48), the next three the
// model, and every further byte is one tick's counts of events 0–2 or,
// with both top bits set, a jump over 1 to 8 ticks (odd) or a resume of
// the lazy engine from its own snapshot (even). Hits must agree on every
// tick, and the states on every seventh byte and the last.
func FuzzLazyFilterMatchesEager(f *testing.F) {
	f.Add([]byte{4, 5, 0b101, 7, 1, 0, 0, 0, 0, 0xc3, 2, 0, 0, 0, 0, 0, 0, 0x30, 0, 0, 0})
	f.Add([]byte{0, 0, 0xff, 0xff, 0x3f, 0x3f, 0x3f, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0, 0xc0, 0, 0})
	f.Add(append([]byte{47, 2, 1, 0x20}, bytes.Repeat([]byte{0, 0, 0x10, 0, 0, 0, 0xc5, 0x02}, 30)...))
	f.Add(append([]byte{9, 3, 0x0f, 0xf3}, bytes.Repeat([]byte{0x3f, 0x3f, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xc0}, 8)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		model := fuzzModel(data[1], data[2], data[3])
		cfg := DefaultConfig()
		cfg.OutlierWindow = 1 + int(data[0]%48)
		lazy, eager := NewEngine(model, nil, cfg), NewEngine(model, nil, cfg)
		node := topology.MustParse("R00-M0-N0-C:J02-U01")
		tick := 0
		for k, b := range data[4:] {
			if b>>6 == 3 {
				if b&1 == 1 {
					tick += 1 + int(b>>1&7)
				} else {
					lazy = restoredEngine(t, model, cfg, roundTrip(t, lazy))
				}
				continue
			}
			tk := NewTick()
			for ev := 0; ev < 3; ev++ {
				for n := int(b >> (2 * ev) & 3); n > 0; n-- {
					tk.Add(logs.Record{EventID: ev, Location: node})
				}
			}
			ts := t0.Add(time.Duration(tick) * model.Step)
			tick++
			got, want := lazy.DetectOutliers(tk, ts), eagerDetectOutliers(eager, tk, ts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("byte %d: hits %v, want %v", k, got, want)
			}
			if k%7 == 6 || k == len(data)-5 {
				if g, w := stateJSON(t, lazy), stateJSON(t, eager); !bytes.Equal(g, w) {
					t.Fatalf("byte %d: state\n%s\nwant\n%s", k, g, w)
				}
			}
		}
	})
}

// TestRestoreRejectsUnevenDetectorWindows: a detector state whose raw and
// corrected windows differ in length cannot come from State, and Restore
// answers it with the outlier package's typed error.
func TestRestoreRejectsUnevenDetectorWindows(t *testing.T) {
	_, _, syn := fixtures()
	e := NewEngine(syn.model, nil, DefaultConfig())
	err := e.Restore(&EngineState{Detectors: map[int]outlier.DetectorState{0: {Raw: []float64{1, 0}, Cor: []float64{1}}}})
	var shape *outlier.WindowShapeError
	if !errors.As(err, &shape) || shape.Raw != 2 || shape.Cor != 1 {
		t.Fatalf("err = %v, want an *outlier.WindowShapeError for 2 raw, 1 cor", err)
	}
}

// BenchmarkDetectOutliers times the filter stage over the bgl200 stream,
// one fresh engine (built outside the timer) per op: windows filling,
// turning over and full.
func BenchmarkDetectOutliers(b *testing.B) {
	_, f, _ := fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine(f.model, nil, DefaultConfig())
		b.StartTimer()
		for k, tk := range f.ticks {
			e.DetectOutliers(tk, f.tickStart(k))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(f.ticks))/1e3, "us/tick")
}
