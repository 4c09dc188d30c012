package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
)

var t0 = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

// trainedFixture caches one trained model per seed: training dominates
// the suite's runtime (badly so under -race), and the model, profiles
// and stamped test window are read-only — every test builds its own
// engine on top.
type trainedFixture struct {
	model    *correlate.Model
	profiles map[string]*location.Profile
	test     []logs.Record
	cut, end time.Time
}

var (
	fixMu    sync.Mutex
	fixtures = map[int64]*trainedFixture{}
)

// trained builds (or reuses) a model, its profiles and a stamped test
// window from a seeded BG/L-profile log. The returned record slice is a
// fresh copy, safe for callers to reorder.
func trained(t testing.TB, seed int64) (*correlate.Model, map[string]*location.Profile, []logs.Record, time.Time, time.Time) {
	t.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	f := fixtures[seed]
	if f == nil {
		total := 6 * 24 * time.Hour
		cut := t0.Add(3 * 24 * time.Hour)
		res := gen.New(gen.BlueGeneL(), seed).Generate(t0, total)
		org := helo.New(0)
		org.Assign(res.Records)
		train, test, _ := res.Split(cut)
		model := correlate.Train(train, t0, cut, correlate.Hybrid, correlate.DefaultConfig())
		profiles := location.Extract(train, model.Chains, t0, model.Step, 1)
		f = &trainedFixture{model: model, profiles: profiles, test: test, cut: cut, end: res.End}
		fixtures[seed] = f
	}
	return f.model, f.profiles, append([]logs.Record(nil), f.test...), f.cut, f.end
}

// engineRun is the frozen tick-loop reference the replay driver is held
// to: it streams the time-sorted records through e over [start, end) one
// sampling tick at a time — sample (skipping stragglers from before the
// tick), filter, match, account — with no channels, supervision or
// hardening in the way.
func engineRun(e *predict.Engine, recs []logs.Record, start, end time.Time) *predict.Result {
	res := e.NewResult()
	ri := 0
	for tick := 0; tick < int(end.Sub(start)/e.Step()); tick++ {
		tickStart := start.Add(time.Duration(tick) * e.Step())
		tickEnd := tickStart.Add(e.Step())
		t := predict.NewTick()
		for ; ri < len(recs) && recs[ri].Time.Before(tickEnd); ri++ {
			if !recs[ri].Time.Before(tickStart) {
				t.Add(recs[ri])
			}
		}
		hits := e.DetectOutliers(t, tickStart)
		e.FinishTick(t, e.MatchChains(hits, tick), tick, tickEnd, res)
	}
	return res
}

func samePredictions(t *testing.T, got, want []predict.Prediction, gotName, wantName string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s emitted %d predictions, %s %d", gotName, len(got), wantName, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("prediction %d differs:\n%s %+v\n%s %+v", i, gotName, got[i], wantName, want[i])
		}
	}
}

func TestRunMatchesEngineRun(t *testing.T) {
	model, profiles, test, cut, end := trained(t, 501)

	ref := engineRun(predict.NewEngine(model, profiles, predict.DefaultConfig()), test, cut, end)

	p := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig())
	got, err := p.Run(context.Background(), logs.NewSliceSource(test), cut, end)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	samePredictions(t, got.Predictions, ref.Predictions, "pipeline", "engine")
	if got.Stats.Ticks != ref.Stats.Ticks {
		t.Errorf("Ticks = %d, want %d", got.Stats.Ticks, ref.Stats.Ticks)
	}
	if got.Stats.Messages != ref.Stats.Messages {
		t.Errorf("Messages = %d, want %d", got.Stats.Messages, ref.Stats.Messages)
	}
	if len(got.Stats.ChainsUsed) != len(ref.Stats.ChainsUsed) {
		t.Errorf("ChainsUsed = %d, want %d", len(got.Stats.ChainsUsed), len(ref.Stats.ChainsUsed))
	}
}

func TestRunStageCounters(t *testing.T) {
	model, profiles, test, cut, end := trained(t, 501)
	p := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig())
	res, err := p.Run(context.Background(), logs.NewSliceSource(test), cut, end)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := res.Stats.Stages
	if len(st) != 5 {
		t.Fatalf("got %d stage rows, want 5 (source, template, sample, filter, match)", len(st))
	}
	byName := map[string]predict.StageStats{}
	for _, sg := range st {
		byName[sg.Name] = sg
	}
	if got := byName["source"].In; got != int64(len(test)) {
		t.Errorf("source in = %d, want %d", got, len(test))
	}
	if got := byName["template"].Out; got != int64(len(test)) {
		t.Errorf("template out = %d, want %d", got, len(test))
	}
	if got := byName["sample"].Out; got != int64(res.Stats.Ticks) {
		t.Errorf("sample out = %d ticks, want %d", got, res.Stats.Ticks)
	}
	if got := byName["filter"].In; got != int64(res.Stats.Ticks) {
		t.Errorf("filter in = %d ticks, want %d", got, res.Stats.Ticks)
	}
	if got := byName["match"].Out; got != int64(len(res.Predictions)) {
		t.Errorf("match out = %d, want %d predictions", got, len(res.Predictions))
	}
}

// endlessSource yields synthetic stamped records forever; it never
// exhausts, so only cancellation can end a Run over it.
type endlessSource struct {
	i    int
	base time.Time
}

func (s *endlessSource) Next() (logs.Record, bool) {
	r := logs.Record{
		Time:    s.base.Add(time.Duration(s.i) * 100 * time.Millisecond),
		EventID: s.i % 50,
	}
	s.i++
	return r, true
}

func (s *endlessSource) Err() error { return nil }

func TestRunCancellationTerminatesAllStages(t *testing.T) {
	model, profiles, _, _, _ := trained(t, 501)

	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		p := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig())
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		var res *predict.Result
		var err error
		//elsa:chanowner done
		go func() {
			defer close(done)
			res, err = p.Run(ctx, &endlessSource{base: t0}, t0, t0.Add(365*24*time.Hour))
		}()
		time.Sleep(20 * time.Millisecond) // let the stream spin up mid-run
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Run did not return after cancellation")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res == nil {
			t.Fatal("cancelled Run returned nil partial result")
		}
	}

	// All stage goroutines must be gone; allow the runtime a moment to
	// reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunSurfacesSourceError(t *testing.T) {
	model, profiles, test, cut, end := trained(t, 501)
	wantErr := errors.New("tail interrupted")
	i := 0
	src := logs.NewFuncSource(func() (logs.Record, bool, error) {
		if i < len(test)/2 {
			r := test[i]
			i++
			return r, true, nil
		}
		return logs.Record{}, false, wantErr
	})
	p := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig())
	res, err := p.Run(context.Background(), src, cut, end)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if res == nil || res.Stats.Messages == 0 {
		t.Fatal("partial result missing")
	}
}

func TestRunDropsRecordsOutsideWindow(t *testing.T) {
	model, profiles, test, cut, end := trained(t, 501)
	// Prepend and append records outside [cut, end): both must be dropped
	// by the sample stage without corrupting the replay.
	outside := append([]logs.Record{{Time: cut.Add(-time.Hour), EventID: 0}}, test...)
	outside = append(outside, logs.Record{Time: end.Add(time.Hour), EventID: 0})

	ref := engineRun(predict.NewEngine(model, profiles, predict.DefaultConfig()), test, cut, end)
	p := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig())
	got, err := p.Run(context.Background(), logs.NewSliceSource(outside), cut, end)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	samePredictions(t, got.Predictions, ref.Predictions, "windowed", "engine")
	var sample predict.StageStats
	for _, sg := range got.Stats.Stages {
		if sg.Name == "sample" {
			sample = sg
		}
	}
	if sample.Dropped != 2 {
		t.Errorf("sample dropped = %d, want 2", sample.Dropped)
	}
	// Out-of-window records are drops, not stragglers.
	if got.Stats.LateRecords != 0 {
		t.Errorf("LateRecords = %d, want 0", got.Stats.LateRecords)
	}
}
