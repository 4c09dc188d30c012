package chaos_test

import (
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/chaos"
	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/gradual"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/pipeline"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/sig"
	"github.com/elsa-hpc/elsa/internal/topology"
)

var t0 = time.Date(2006, 1, 2, 15, 0, 0, 0, time.UTC)

// pairModel mirrors the pipeline test fixture: one pair chain 1 → 2
// (delay 6 ticks), silent signals, 10 s sampling step.
func pairModel() *correlate.Model {
	return &correlate.Model{
		Mode: correlate.Hybrid,
		Step: 10 * time.Second,
		Chains: []correlate.Chain{{
			Itemset: gradual.Itemset{Items: []gradual.Item{
				{Event: 1, Delay: 0}, {Event: 2, Delay: 6},
			}},
			Predictive:  true,
			MaxSeverity: logs.Failure,
		}},
		Profiles:   map[int]sig.Profile{1: {Class: sig.Silent}, 2: {Class: sig.Silent}},
		Thresholds: map[int]float64{1: 0.5, 2: 0.5},
		Severity:   map[int]logs.Severity{1: logs.Warning, 2: logs.Failure},
	}
}

func newSession(cfg pipeline.Config) *pipeline.Session {
	return pipeline.New(predict.NewEngine(pairModel(), nil, predict.DefaultConfig()), nil, cfg).NewSession(t0)
}

// feedOK feeds one record, failing the test on an unexpected error —
// the chaos streams never feed a closed session.
func feedOK(t *testing.T, s *pipeline.Session, r logs.Record) []predict.Prediction {
	t.Helper()
	preds, err := s.Feed(r)
	if err != nil {
		t.Fatalf("Feed: %v", err)
	}
	return preds
}

// baseStream builds n well-formed records with unique messages, spaced
// by step, all reporting the benign event id 3 (no chain references it).
func baseStream(n int, step time.Duration) []logs.Record {
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	recs := make([]logs.Record, n)
	for i := range recs {
		recs[i] = logs.Record{
			Time:     t0.Add(time.Duration(i) * step),
			Severity: logs.Info,
			EventID:  3,
			Location: node,
			Message:  "ciod: generated message " + time.Duration(i).String(),
		}
	}
	return recs
}

func drain(in *chaos.Injector) []logs.Record {
	var out []logs.Record
	for {
		rec, ok := in.Next()
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

func fullChaos(seed int64) chaos.Config {
	return chaos.Config{
		Seed:      seed,
		Corrupt:   0.15,
		Duplicate: 0.15,
		Reorder:   0.15,
		Skew:      0.10,
		SkewMax:   5 * time.Second,
		Flood:     0.02,
		FloodSize: 32,
		Stall:     0.10,
		StallMax:  time.Microsecond,
		Sleep:     func(time.Duration) {},
	}
}

func TestInjectorZeroConfigPassesThrough(t *testing.T) {
	base := baseStream(50, time.Second)
	got := drain(chaos.New(logs.NewSliceSource(base), chaos.Config{}))
	if len(got) != len(base) {
		t.Fatalf("emitted %d records, want %d", len(got), len(base))
	}
	for i := range got {
		if got[i] != base[i] {
			t.Fatalf("record %d perturbed by a zero config: %+v", i, got[i])
		}
	}
}

func TestInjectorIsDeterministic(t *testing.T) {
	base := baseStream(300, time.Second)
	a := chaos.New(logs.NewSliceSource(base), fullChaos(7))
	b := chaos.New(logs.NewSliceSource(base), fullChaos(7))
	ra, rb := drain(a), drain(b)
	if len(ra) != len(rb) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("same seed diverges at record %d:\n%+v\n%+v", i, ra[i], rb[i])
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("same seed, different stats: %+v vs %+v", a.Stats(), b.Stats())
	}

	c := chaos.New(logs.NewSliceSource(base), fullChaos(8))
	rc := drain(c)
	if len(rc) == len(ra) {
		same := true
		for i := range rc {
			if rc[i] != ra[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical streams")
		}
	}
}

func TestInjectorReorderSwapsAdjacent(t *testing.T) {
	base := baseStream(4, time.Second)
	got := drain(chaos.New(logs.NewSliceSource(base), chaos.Config{Seed: 1, Reorder: 1}))
	if len(got) != 4 {
		t.Fatalf("emitted %d records, want 4", len(got))
	}
	want := []int{1, 0, 3, 2}
	for i, j := range want {
		if got[i] != base[j] {
			t.Errorf("record %d: got %q, want base[%d]", i, got[i].Message, j)
		}
	}
}

// TestMonitorSurvivesChaos is the headline robustness test: every fault
// class at once, and the monitor must neither panic nor wedge, while the
// ingest hardening accounts for every record exactly — each corrupted one
// quarantined, each other one (duplicates included: they are sampled)
// sampled, dropped as late, or shed.
func TestMonitorSurvivesChaos(t *testing.T) {
	base := baseStream(3000, 500*time.Millisecond)
	stalls := 0
	cfg := fullChaos(42)
	cfg.Sleep = func(time.Duration) { stalls++ }
	inj := chaos.New(logs.NewSliceSource(base), cfg)

	done := make(chan *predict.Result, 1)
	go func() {
		s := newSession(pipeline.DefaultConfig())
		for {
			rec, ok := inj.Next()
			if !ok {
				break
			}
			s.Feed(rec)
		}
		done <- s.Close()
	}()

	var res *predict.Result
	select {
	case res = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("monitor wedged under chaos: no result within the deadline")
	}
	if err := inj.Err(); err != nil {
		t.Fatalf("injector source error: %v", err)
	}

	st := inj.Stats()
	if st.Corrupted == 0 || st.Duplicated == 0 || st.Reordered == 0 ||
		st.Skewed == 0 || st.Flooded == 0 || st.Stalled == 0 {
		t.Fatalf("fixture too tame, some fault class never fired: %+v", st)
	}
	if int64(stalls) != st.Stalled {
		t.Errorf("sleep calls = %d, stalls counted = %d", stalls, st.Stalled)
	}
	if got := int64(res.Stats.QuarantinedRecords); got != st.Corrupted {
		t.Errorf("QuarantinedRecords = %d, want every corrupted record (%d)", got, st.Corrupted)
	}
	// Whatever survived ingest must be accounted for, record by record:
	// sampled into ticks, dropped as late, or shed under overload.
	admitted := int64(res.Stats.Messages) + int64(res.Stats.LateRecords) + int64(res.Stats.ShedRecords)
	if want := st.Emitted - st.Corrupted; admitted != want {
		t.Errorf("admitted records %d, want %d (emitted %d - quarantined %d)",
			admitted, want, st.Emitted, st.Corrupted)
	}
}

func TestFloodTripsShedding(t *testing.T) {
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	base := []logs.Record{{Time: t0.Add(5 * time.Second), Severity: logs.Info, EventID: 3, Location: node, Message: "storm seed"}}
	inj := chaos.New(logs.NewSliceSource(base), chaos.Config{Seed: 3, Flood: 1, FloodSize: 100})

	pcfg := pipeline.DefaultConfig()
	pcfg.MaxBuffered = 16
	s := newSession(pcfg)
	for {
		rec, ok := inj.Next()
		if !ok {
			break
		}
		s.Feed(rec)
	}
	s.AdvanceTo(t0.Add(200 * time.Second))
	res := s.Close()

	if inj.Stats().Flooded != 100 {
		t.Fatalf("Flooded = %d, want 100", inj.Stats().Flooded)
	}
	if res.Stats.ShedRecords == 0 {
		t.Error("ShedRecords = 0: the flood never tripped overload shedding")
	}
	if !res.Stats.Degraded {
		t.Error("Stats.Degraded not set for a run that shed load")
	}
}

// TestCleanTailRecoversAfterChaos closes the loop: after a chaotic head
// that trips shedding, a quiet gap long enough for open chain state to
// expire, and then a clean chain trigger, the monitor must emit exactly
// the prediction the trigger warrants — undegraded, correctly timed.
func TestCleanTailRecoversAfterChaos(t *testing.T) {
	node := topology.MustParse("R00-M0-N0-C:J02-U01")

	cfg := fullChaos(11)
	cfg.Flood = 0.1
	cfg.FloodSize = 50
	inj := chaos.New(logs.NewSliceSource(baseStream(120, 500*time.Millisecond)), cfg)

	pcfg := pipeline.DefaultConfig()
	pcfg.MaxBuffered = 32
	s := newSession(pcfg)

	var preds []predict.Prediction
	for {
		rec, ok := inj.Next()
		if !ok {
			break
		}
		preds = append(preds, feedOK(t, s, rec)...)
	}
	if inj.Stats().Flooded == 0 {
		t.Fatal("fixture too tame: no flood fired")
	}
	if len(preds) != 0 {
		t.Fatalf("chaotic head of benign events fired %d predictions", len(preds))
	}

	// Quiet gap: far longer than the chain span (6 ticks) plus tolerance,
	// so every partially-matched instance expires and the buffer drains.
	preds = append(preds, s.AdvanceTo(t0.Add(400*time.Second))...)

	// Clean tail: the pair trigger at tick 40 forecasts tick 46.
	preds = append(preds, feedOK(t, s, logs.Record{Time: t0.Add(405 * time.Second), Severity: logs.Warning, EventID: 1, Location: node})...)
	preds = append(preds, s.AdvanceTo(t0.Add(600*time.Second))...)
	res := s.Close()

	if res.Stats.ShedRecords == 0 {
		t.Fatal("fixture too tame: the chaotic head never tripped shedding")
	}
	// Every record of the head, and the one of the tail, is quarantined,
	// sampled, late or shed.
	accounted := int64(res.Stats.QuarantinedRecords + res.Stats.Messages + res.Stats.LateRecords + res.Stats.ShedRecords)
	if want := inj.Stats().Emitted + 1; accounted != want {
		t.Errorf("accounted records %d, want %d", accounted, want)
	}
	if len(preds) != 1 {
		t.Fatalf("predictions = %d, want exactly the clean-tail one", len(preds))
	}
	p := preds[0]
	if p.Degraded {
		t.Error("clean-tail prediction still flagged Degraded after recovery")
	}
	if want := t0.Add(460 * time.Second); !p.ExpectedAt.Equal(want) {
		t.Errorf("ExpectedAt = %v, want %v", p.ExpectedAt, want)
	}
	if p.Event != 2 {
		t.Errorf("Event = %d, want 2", p.Event)
	}
}
