package predict

import (
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/gradual"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/sig"
	"github.com/elsa-hpc/elsa/internal/topology"
)

var t0 = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

// run is the tests' reference driver: it streams the time-sorted records
// through e over [start, end) one sampling tick at a time, composing the
// same stage steps internal/pipeline's Session drives record by record.
// Records before a tick's start are stragglers and are skipped.
func run(e *Engine, recs []logs.Record, start, end time.Time) *Result {
	res := e.NewResult()
	ri := 0
	for tick := 0; tick < int(end.Sub(start)/e.Step()); tick++ {
		tickStart := start.Add(time.Duration(tick) * e.Step())
		tickEnd := tickStart.Add(e.Step())
		t := NewTick()
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

// pipeline runs generate -> HELO -> split -> train -> profiles -> online.
type pipeline struct {
	model    *correlate.Model
	profiles map[string]*location.Profile
	result   *Result
	failures []gen.FailureRecord
	test     []logs.Record
}

func runPipeline(t *testing.T, mode correlate.Mode, trainDays, testDays int, seed int64) *pipeline {
	t.Helper()
	total := time.Duration(trainDays+testDays) * 24 * time.Hour
	cut := t0.Add(time.Duration(trainDays) * 24 * time.Hour)
	res := gen.New(gen.BlueGeneL(), seed).Generate(t0, total)
	org := helo.New(0)
	org.Assign(res.Records)
	train, test, testFailures := res.Split(cut)
	model := correlate.Train(train, t0, cut, mode, correlate.DefaultConfig())
	profiles := location.Extract(train, model.Chains, t0, model.Step, 1)
	engine := NewEngine(model, profiles, DefaultConfig())
	result := run(engine, test, cut, res.End)
	return &pipeline{model: model, profiles: profiles, result: result,
		failures: testFailures, test: test}
}

func TestEnginePredictsFailures(t *testing.T) {
	p := runPipeline(t, correlate.Hybrid, 4, 8, 301)
	if len(p.result.Predictions) == 0 {
		t.Fatal("no predictions emitted")
	}
	if p.result.Stats.ChainsLoaded == 0 {
		t.Fatal("no prediction-capable chains")
	}
	if len(p.result.Stats.ChainsUsed) == 0 {
		t.Fatal("no chains used")
	}
}

func TestPredictionFieldsConsistent(t *testing.T) {
	p := runPipeline(t, correlate.Hybrid, 4, 6, 302)
	for _, pred := range p.result.Predictions {
		if pred.IssuedAt.Before(pred.TriggeredAt) {
			t.Errorf("issued before triggered: %+v", pred)
		}
		if pred.AnalysisTime <= 0 {
			t.Errorf("non-positive analysis time: %v", pred.AnalysisTime)
		}
		if got := pred.ExpectedAt.Sub(pred.IssuedAt); got != pred.Lead {
			t.Errorf("lead mismatch: %v vs %v", got, pred.Lead)
		}
		if pred.ChainSize < 2 {
			t.Errorf("chain size %d", pred.ChainSize)
		}
		if !pred.Severity.IsError() {
			t.Errorf("prediction for non-error severity %v", pred.Severity)
		}
		if !pred.Scope.Valid() {
			t.Errorf("invalid scope %v", pred.Scope)
		}
	}
}

func TestEngineDeterministic(t *testing.T) {
	a := runPipeline(t, correlate.Hybrid, 3, 4, 303)
	b := runPipeline(t, correlate.Hybrid, 3, 4, 303)
	if len(a.result.Predictions) != len(b.result.Predictions) {
		t.Fatalf("prediction counts differ: %d vs %d",
			len(a.result.Predictions), len(b.result.Predictions))
	}
	for i := range a.result.Predictions {
		if a.result.Predictions[i] != b.result.Predictions[i] {
			t.Fatalf("prediction %d differs", i)
		}
	}
}

func TestAnalysisTimeGrowsWithBursts(t *testing.T) {
	p := runPipeline(t, correlate.Hybrid, 3, 6, 304)
	st := p.result.Stats
	if st.MaxTickMessages <= 10 {
		t.Skip("no burst in window")
	}
	mean := time.Duration(st.Analysis.Mean() * float64(time.Second))
	if st.MaxAnalysis <= mean {
		t.Errorf("max analysis %v not above mean %v", st.MaxAnalysis, mean)
	}
	// Bursty ticks must cost visibly more than the base cost.
	if st.MaxAnalysis < 50*time.Millisecond {
		t.Errorf("max analysis %v too small for a %d-message burst",
			st.MaxAnalysis, st.MaxTickMessages)
	}
}

func TestLocationDisabledNarrowsScope(t *testing.T) {
	total := 7 * 24 * time.Hour
	cut := t0.Add(3 * 24 * time.Hour)
	res := gen.New(gen.BlueGeneL(), 305).Generate(t0, total)
	org := helo.New(0)
	org.Assign(res.Records)
	train, test, _ := res.Split(cut)
	model := correlate.Train(train, t0, cut, correlate.Hybrid, correlate.DefaultConfig())
	profiles := location.Extract(train, model.Chains, t0, model.Step, 1)

	cfg := DefaultConfig()
	cfg.UseLocation = false
	noLoc := run(NewEngine(model, profiles, cfg), test, cut, res.End)
	for _, pred := range noLoc.Predictions {
		if pred.Scope != topology.ScopeNode {
			t.Fatalf("location-blind prediction with scope %v", pred.Scope)
		}
	}
}

func TestRequired(t *testing.T) {
	cases := []struct{ size, want int }{{2, 1}, {3, 2}, {4, 2}, {6, 2}}
	for _, c := range cases {
		if got := required(c.size); got != c.want {
			t.Errorf("required(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestEngineOnSyntheticChain(t *testing.T) {
	// Hand-build a model with one chain 1 -> 2 -> 3 (delays 0, 6, 12) and
	// stream a matching occurrence through the engine.
	model := &correlate.Model{
		Mode: correlate.Hybrid,
		Step: 10 * time.Second,
		Chains: []correlate.Chain{{
			Itemset: gradual.Itemset{Items: []gradual.Item{
				{Event: 1, Delay: 0}, {Event: 2, Delay: 6}, {Event: 3, Delay: 12},
			}},
			Predictive:  true,
			MaxSeverity: logs.Failure,
		}},
		Profiles: map[int]sig.Profile{
			1: {Event: 1, Class: sig.Silent},
			2: {Event: 2, Class: sig.Silent},
			3: {Event: 3, Class: sig.Silent},
		},
		Thresholds: map[int]float64{1: 0.5, 2: 0.5, 3: 0.5},
		Severity:   map[int]logs.Severity{1: logs.Warning, 2: logs.Severe, 3: logs.Failure},
	}
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	mkRec := func(tick int, ev int) logs.Record {
		return logs.Record{Time: t0.Add(time.Duration(tick*10) * time.Second),
			EventID: ev, Location: node, Severity: model.Severity[ev]}
	}
	recs := []logs.Record{mkRec(5, 1), mkRec(11, 2), mkRec(17, 3)}
	engine := NewEngine(model, nil, DefaultConfig())
	res := run(engine, recs, t0, t0.Add(time.Hour))
	if len(res.Predictions) != 1 {
		t.Fatalf("predictions = %d, want 1", len(res.Predictions))
	}
	p := res.Predictions[0]
	if p.Event != 3 {
		t.Errorf("predicted event %d, want 3", p.Event)
	}
	if p.Trigger != node {
		t.Errorf("trigger = %v", p.Trigger)
	}
	// Prefix completes at tick 11 (event 2); the forecast points at the
	// start of tick 5+12 = 17, i.e. 170 s.
	wantExpected := t0.Add(170 * time.Second)
	if !p.ExpectedAt.Equal(wantExpected) {
		t.Errorf("ExpectedAt = %v, want %v", p.ExpectedAt, wantExpected)
	}
	if p.Late() {
		t.Errorf("prediction late: lead %v", p.Lead)
	}
}

func TestEngineNoDuplicateInstanceSameTick(t *testing.T) {
	model := &correlate.Model{
		Mode: correlate.Hybrid,
		Step: 10 * time.Second,
		Chains: []correlate.Chain{{
			Itemset: gradual.Itemset{Items: []gradual.Item{
				{Event: 1, Delay: 0}, {Event: 2, Delay: 3},
			}},
			Predictive:  true,
			MaxSeverity: logs.Failure,
		}},
		Profiles:   map[int]sig.Profile{1: {Class: sig.Silent}, 2: {Class: sig.Silent}},
		Thresholds: map[int]float64{1: 0.5, 2: 0.5},
		Severity:   map[int]logs.Severity{1: logs.Warning, 2: logs.Failure},
	}
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	// Two records of event 1 in the same tick: one instance, one
	// prediction (pairs fire immediately).
	recs := []logs.Record{
		{Time: t0.Add(2 * time.Second), EventID: 1, Location: node},
		{Time: t0.Add(3 * time.Second), EventID: 1, Location: node},
	}
	res := run(NewEngine(model, nil, DefaultConfig()), recs, t0, t0.Add(10*time.Minute))
	if len(res.Predictions) != 1 {
		t.Fatalf("predictions = %d, want 1 (deduplicated)", len(res.Predictions))
	}
}

func TestAdaptiveWindowsTightenWithConfirmations(t *testing.T) {
	// A pair chain whose true span (12 ticks) differs from the mined one
	// (10): after enough confirmed occurrences, the prediction window
	// must move from the static bounds toward the observed spans.
	model := &correlate.Model{
		Mode: correlate.Hybrid,
		Step: 10 * time.Second,
		Chains: []correlate.Chain{{
			Itemset: gradual.Itemset{Items: []gradual.Item{
				{Event: 1, Delay: 0}, {Event: 2, Delay: 10},
			}},
			Predictive:  true,
			MaxSeverity: logs.Failure,
		}},
		Profiles:   map[int]sig.Profile{1: {Class: sig.Silent}, 2: {Class: sig.Silent}},
		Thresholds: map[int]float64{1: 0.5, 2: 0.5},
		Severity:   map[int]logs.Severity{1: logs.Warning, 2: logs.Failure},
	}
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	var recs []logs.Record
	mk := func(tick, ev int) logs.Record {
		return logs.Record{Time: t0.Add(time.Duration(tick*10) * time.Second),
			EventID: ev, Location: node}
	}
	// 8 occurrences, true span 12 ticks (within tolerance of mined 10).
	for i := 0; i < 8; i++ {
		base := i * 100
		recs = append(recs, mk(base, 1), mk(base+12, 2))
	}
	res := run(NewEngine(model, nil, DefaultConfig()), recs, t0, t0.Add(3*time.Hour))
	if len(res.Predictions) != 8 {
		t.Fatalf("predictions = %d, want 8", len(res.Predictions))
	}
	first := res.Predictions[0]
	lastP := res.Predictions[len(res.Predictions)-1]
	// Static bounds around mined span 10 with tol max(2, 10/4)=2: [8, 12].
	if got := first.ExpectedLatest.Sub(first.ExpectedEarliest); got != 40*time.Second {
		t.Errorf("static window width = %v, want 40s", got)
	}
	// After >= 5 confirmations at span 12, bounds should centre near 12.
	wantEarliest := lastP.TriggeredAt.Add(-10 * time.Second) // trigger tick +12 from start
	_ = wantEarliest
	lateSpan := lastP.ExpectedLatest.Sub(lastP.TriggeredAt)
	if lateSpan < 110*time.Second || lateSpan > 140*time.Second {
		t.Errorf("adaptive latest = %v after trigger, want ~120s", lateSpan)
	}
	earlySpan := lastP.ExpectedEarliest.Sub(lastP.TriggeredAt)
	if earlySpan < 100*time.Second || earlySpan > 125*time.Second {
		t.Errorf("adaptive earliest = %v after trigger, want ~110-120s", earlySpan)
	}
}

func TestCIODBChainPredictsLate(t *testing.T) {
	// A chain whose items all share one tick gives no usable window: the
	// prediction must be marked late.
	model := &correlate.Model{
		Mode: correlate.Hybrid,
		Step: 10 * time.Second,
		Chains: []correlate.Chain{{
			Itemset: gradual.Itemset{Items: []gradual.Item{
				{Event: 1, Delay: 0}, {Event: 2, Delay: 0},
			}},
			Predictive:  true,
			MaxSeverity: logs.Failure,
		}},
		Profiles:   map[int]sig.Profile{1: {Class: sig.Silent}, 2: {Class: sig.Silent}},
		Thresholds: map[int]float64{1: 0.5, 2: 0.5},
		Severity:   map[int]logs.Severity{1: logs.Failure, 2: logs.Failure},
	}
	recs := []logs.Record{
		{Time: t0.Add(time.Second), EventID: 1, Location: topology.System},
		{Time: t0.Add(time.Second), EventID: 2, Location: topology.System},
	}
	res := run(NewEngine(model, nil, DefaultConfig()), recs, t0, t0.Add(time.Minute))
	if len(res.Predictions) != 1 {
		t.Fatalf("predictions = %d, want 1", len(res.Predictions))
	}
	if !res.Predictions[0].Late() {
		t.Errorf("zero-window chain should be late, lead = %v", res.Predictions[0].Lead)
	}
	if res.Stats.LatePreds != 1 {
		t.Errorf("LatePreds = %d", res.Stats.LatePreds)
	}
}
