package pipeline

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/gradual"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/sig"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// feedOK feeds one record, failing the test on an unexpected error —
// these tests never feed a closed session.
func feedOK(t *testing.T, s *Session, r logs.Record) []predict.Prediction {
	t.Helper()
	preds, err := s.Feed(r)
	if err != nil {
		t.Fatalf("Feed: %v", err)
	}
	return preds
}

func TestSessionMatchesRun(t *testing.T) {
	model, profiles, test, cut, end := trained(t, 501)

	batch, err := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig()).
		Run(context.Background(), logs.NewSliceSource(test), cut, end)
	if err != nil {
		t.Fatal(err)
	}

	s := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig()).NewSession(cut)
	var streamed []predict.Prediction
	for _, r := range test {
		streamed = append(streamed, feedOK(t, s, r)...)
	}
	streamed = append(streamed, s.AdvanceTo(end)...)
	final := s.Close()

	samePredictions(t, streamed, batch.Predictions, "session", "batch")
	if final.Stats.Messages != batch.Stats.Messages {
		t.Errorf("message counts differ: %d vs %d", final.Stats.Messages, batch.Stats.Messages)
	}
	if len(final.Stats.ChainsUsed) != len(batch.Stats.ChainsUsed) {
		t.Errorf("chains used differ: %d vs %d", len(final.Stats.ChainsUsed), len(batch.Stats.ChainsUsed))
	}
	if len(final.Stats.Stages) != numStages {
		t.Errorf("stage counters missing: %d rows", len(final.Stats.Stages))
	}
}

func TestSessionIncrementalDelivery(t *testing.T) {
	model, profiles, test, cut, _ := trained(t, 501)
	s := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig()).NewSession(cut)

	sawMidRun := false
	half := len(test) / 2
	for i, r := range test {
		if preds := feedOK(t, s, r); len(preds) > 0 && i < half {
			sawMidRun = true
		}
	}
	s.Close()
	if !sawMidRun {
		t.Error("no prediction delivered before the stream ended")
	}
}

func TestSessionDropsStragglersBehindWallClock(t *testing.T) {
	model, profiles, _, _, _ := trained(t, 501)
	s := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig()).NewSession(t0)
	// The wall clock is authoritative: after AdvanceTo closed a tick, a
	// record from it is a straggler even within the grace.
	s.AdvanceTo(t0.Add(time.Minute))
	s.Feed(logs.Record{Time: t0.Add(time.Second), EventID: 0, Location: topology.System})
	if got := s.Result().Stats.LateRecords; got != 1 {
		t.Errorf("LateRecords = %d, want 1", got)
	}
}

func TestSessionClosedIsInert(t *testing.T) {
	model, profiles, _, _, _ := trained(t, 501)
	s := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig()).NewSession(t0)
	res1 := s.Close()
	if preds := s.AdvanceTo(t0.Add(time.Hour)); preds != nil {
		t.Error("closed session advanced")
	}
	preds, err := s.Feed(logs.Record{Time: t0, EventID: 0})
	if err != ErrClosed {
		t.Errorf("Feed after Close: err = %v, want ErrClosed", err)
	}
	if preds != nil {
		t.Error("closed session accepted a record")
	}
	res2 := s.Close()
	if res1 != res2 {
		t.Error("Close not idempotent")
	}
}

func TestSessionQuietAdvance(t *testing.T) {
	model, profiles, _, _, _ := trained(t, 501)
	s := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig()).NewSession(t0)
	// An hour of silence: ticks must still close.
	s.AdvanceTo(t0.Add(time.Hour))
	if got := s.Result().Stats.Ticks; got != 360 {
		t.Errorf("Ticks = %d, want 360", got)
	}
}

// pairModel is a minimal hand-built model (one pair chain 1 → 2, silent
// signals, 10 s step) for targeted ingest-contract tests.
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

func TestSessionToleratesOneTickLateRecord(t *testing.T) {
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	s := New(predict.NewEngine(pairModel(), nil, predict.DefaultConfig()), nil, DefaultConfig()).NewSession(t0)

	// A record at tick 4 arrives first, then a straggler from tick 3 —
	// one tick late, within the default grace. Both must be sampled.
	s.Feed(logs.Record{Time: t0.Add(45 * time.Second), EventID: 0, Location: node})
	s.Feed(logs.Record{Time: t0.Add(35 * time.Second), EventID: 1, Location: node})
	res := s.Close()
	if res.Stats.LateRecords != 0 {
		t.Errorf("LateRecords = %d, want 0 (straggler within grace)", res.Stats.LateRecords)
	}
	if res.Stats.Messages != 2 {
		t.Errorf("Messages = %d, want 2", res.Stats.Messages)
	}
	// The straggler landed in its own tick, so the pair chain fired from
	// tick 3 and forecasts the start of tick 3+6.
	if len(res.Predictions) != 1 {
		t.Fatalf("predictions = %d, want 1", len(res.Predictions))
	}
	want := t0.Add(90 * time.Second)
	if got := res.Predictions[0].ExpectedAt; !got.Equal(want) {
		t.Errorf("ExpectedAt = %v, want %v", got, want)
	}
}

func TestSessionDropsRecordsBeyondGrace(t *testing.T) {
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	s := New(predict.NewEngine(pairModel(), nil, predict.DefaultConfig()), nil, DefaultConfig()).NewSession(t0)

	// A record at tick 5 closes ticks 0..3 (grace 1 keeps tick 4 and 5
	// open); a straggler from tick 2 is beyond the grace and must be
	// dropped and counted, not corrupt closed-tick state.
	s.Feed(logs.Record{Time: t0.Add(55 * time.Second), EventID: 0, Location: node})
	preds := feedOK(t, s, logs.Record{Time: t0.Add(25 * time.Second), EventID: 1, Location: node})
	if len(preds) != 0 {
		t.Errorf("dropped straggler fired %d predictions", len(preds))
	}
	res := s.Close()
	if res.Stats.LateRecords != 1 {
		t.Errorf("LateRecords = %d, want 1", res.Stats.LateRecords)
	}
	if res.Stats.Messages != 1 {
		t.Errorf("Messages = %d, want 1 (straggler excluded)", res.Stats.Messages)
	}
	if len(res.Predictions) != 0 {
		t.Errorf("predictions = %d, want 0", len(res.Predictions))
	}
}

// cancellingLearner wraps a real organizer and cancels the run's context
// from inside the template stage after a fixed number of Learn calls —
// the cancellation lands deterministically between stamp and match.
type cancellingLearner struct {
	inner  *helo.Organizer
	after  int
	calls  int
	cancel context.CancelFunc
}

func (c *cancellingLearner) Learn(msg string, sev logs.Severity) *helo.Template {
	c.calls++
	if c.calls == c.after {
		c.cancel()
	}
	return c.inner.Learn(msg, sev)
}

// TestRunCancelledMidTickEmitsNoPartialPredictions cancels the pipeline
// between the template and match stages, mid-stream: the run must stop
// without leaking goroutines, and everything emitted up to that point
// must be an exact prefix of the uninterrupted run — a tick either
// completes the full filter→match path or contributes nothing. The
// partial Result a cancelled Run returns is what carries that prefix.
func TestRunCancelledMidTickEmitsNoPartialPredictions(t *testing.T) {
	model, profiles, test, cut, end := trained(t, 501)

	// Strip the event ids so the template stage must consult the
	// organizer for every record (that is where the cancel fires).
	unstamped := make([]logs.Record, len(test))
	for i, r := range test {
		r.EventID = -1
		unstamped[i] = r
	}

	ref, err := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), helo.New(0), DefaultConfig()).
		Run(context.Background(), logs.NewSliceSource(unstamped), cut, end)
	if err != nil {
		t.Fatalf("reference Run: %v", err)
	}
	want := ref.Predictions
	if len(want) == 0 {
		t.Fatal("reference run emitted no predictions; the test needs some")
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	learner := &cancellingLearner{inner: helo.New(0), after: len(unstamped) / 2, cancel: cancel}

	res, err := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), learner, DefaultConfig()).
		Run(ctx, logs.NewSliceSource(unstamped), cut, end)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled Run returned nil partial result")
	}
	got := res.Predictions
	if len(got) >= len(want) {
		t.Fatalf("cancelled run emitted %d predictions, reference %d — cancellation came too late to test anything", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("prediction %d differs from the reference prefix:\ncancelled %+v\nreference %+v", i, got[i], want[i])
		}
	}

	// Every stage goroutine must be joined; allow the runtime a moment.
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

func TestSessionOutOfOrderWithinGraceMatchesSorted(t *testing.T) {
	model, profiles, test, cut, end := trained(t, 501)

	ref, err := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig()).
		Run(context.Background(), logs.NewSliceSource(test), cut, end)
	if err != nil {
		t.Fatal(err)
	}

	// Perturb arrival order: swap adjacent records whenever the pair is
	// at most one tick apart, so every record stays within the one-tick
	// grace the ingest contract promises to absorb.
	step := predict.DefaultConfig().Step
	shuffled := append([]logs.Record(nil), test...)
	for i := 0; i+1 < len(shuffled); i += 2 {
		ta := int(shuffled[i].Time.Sub(cut) / step)
		tb := int(shuffled[i+1].Time.Sub(cut) / step)
		if tb-ta <= 1 {
			shuffled[i], shuffled[i+1] = shuffled[i+1], shuffled[i]
		}
	}
	s := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig()).NewSession(cut)
	var streamed []predict.Prediction
	for _, r := range shuffled {
		streamed = append(streamed, feedOK(t, s, r)...)
	}
	streamed = append(streamed, s.AdvanceTo(end)...)
	res := s.Close()
	if res.Stats.LateRecords != 0 {
		t.Fatalf("LateRecords = %d, want 0", res.Stats.LateRecords)
	}
	samePredictions(t, streamed, ref.Predictions, "out-of-order", "sorted")
}
