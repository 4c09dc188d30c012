package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/topology"
)

func TestQuarantineReasonClassifiesCorruption(t *testing.T) {
	now := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		rec  logs.Record
		want string
	}{
		{"clean", logs.Record{Time: now, EventID: 1, Message: "ciod error"}, ""},
		{"clean unstamped", logs.Record{Time: now, EventID: -1, Message: "new shape"}, ""},
		{"zero time", logs.Record{EventID: 1}, "zero timestamp"},
		{"absurd time", logs.Record{Time: time.Date(12345, 1, 1, 0, 0, 0, 0, time.UTC)}, "timestamp out of range"},
		{"bad event id", logs.Record{Time: now, EventID: -1337}, "invalid event id"},
		{"oversized", logs.Record{Time: now, Message: strings.Repeat("x", MaxMessageLen+1)}, "oversized message"},
		{"nul byte", logs.Record{Time: now, Message: "a\x00b"}, "NUL byte in message"},
		{"bad utf8", logs.Record{Time: now, Message: "a\xff\xfeb"}, "invalid UTF-8 in message"},
	}
	for _, tc := range cases {
		if got := quarantineReason(&tc.rec); got != tc.want {
			t.Errorf("%s: quarantineReason = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestSessionQuarantinesMalformedRecords(t *testing.T) {
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	s := New(predict.NewEngine(pairModel(), nil, predict.DefaultConfig()), nil, DefaultConfig()).NewSession(t0)

	s.Feed(logs.Record{Time: t0.Add(5 * time.Second), EventID: 1, Location: node})
	s.Feed(logs.Record{EventID: 1, Location: node})                                     // zero time
	s.Feed(logs.Record{Time: t0.Add(6 * time.Second), EventID: -9, Location: node})     // bad id
	s.Feed(logs.Record{Time: t0.Add(7 * time.Second), Message: "a\x00b", EventID: 1})   // NUL
	s.Feed(logs.Record{Time: t0.Add(8 * time.Second), Message: "\xff\xfe", EventID: 1}) // bad UTF-8

	res := s.Close()
	if res.Stats.QuarantinedRecords != 4 {
		t.Errorf("QuarantinedRecords = %d, want 4", res.Stats.QuarantinedRecords)
	}
	if res.Stats.Messages != 1 {
		t.Errorf("Messages = %d, want 1 (quarantined records must not be sampled)", res.Stats.Messages)
	}
	if got := res.Stats.Stages[stageSource].Quarantined; got != 4 {
		t.Errorf("source stage Quarantined = %d, want 4", got)
	}
}

// TestSessionDropsFarFutureTimestamp: a collector's sentinel date passes
// every quarantine check (year 9999 is a valid year) and used to close
// every tick between the stream and itself inside one Feed call. It must
// be dropped as a straggler, counted, and leave the stream's predictions
// exactly those of the clean stream.
func TestSessionDropsFarFutureTimestamp(t *testing.T) {
	model, profiles, test, cut, end := trained(t, 501)
	half := len(test) / 2
	poison := test[half]
	poison.Time = time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)
	if reason := quarantineReason(&poison); reason != "" {
		t.Fatalf("the poisoned record is quarantined (%s); the test needs it admitted", reason)
	}

	run := func(poisoned bool) ([]predict.Prediction, *predict.Result) {
		s := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig()).NewSession(cut)
		var preds []predict.Prediction
		for i, r := range test {
			if poisoned && i == half {
				start := time.Now()
				if fired := feedOK(t, s, poison); len(fired) != 0 {
					t.Errorf("the poisoned record fired %d predictions", len(fired))
				}
				if d := time.Since(start); d > time.Second {
					t.Errorf("feeding the poisoned record took %v", d)
				}
			}
			preds = append(preds, feedOK(t, s, r)...)
		}
		preds = append(preds, s.AdvanceTo(end)...)
		return preds, s.Close()
	}
	want, clean := run(false)
	got, res := run(true)

	samePredictions(t, got, want, "poisoned", "clean")
	if res.Stats.LateRecords != clean.Stats.LateRecords+1 {
		t.Errorf("LateRecords = %d, want %d (clean stream's + the poisoned record)",
			res.Stats.LateRecords, clean.Stats.LateRecords+1)
	}
	if got, want := res.Stats.Stages[stageSample].Dropped, clean.Stats.Stages[stageSample].Dropped+1; got != want {
		t.Errorf("sample stage Dropped = %d, want %d", got, want)
	}
	if res.Stats.Ticks != clean.Stats.Ticks || res.Stats.Messages != clean.Stats.Messages {
		t.Errorf("ticks/messages = %d/%d, want the clean stream's %d/%d",
			res.Stats.Ticks, res.Stats.Messages, clean.Stats.Ticks, clean.Stats.Messages)
	}
}

// TestSamplerForwardJumpBound pins the edges of the forward-jump rule on
// a one-day step (so an accepted year-long jump is 365 ticks, not three
// million): the bound is measured from the session origin before the
// first record, a shed record's timestamp is held to it too, and ticks
// closed by advanceTo move the mark even though no record did.
func TestSamplerForwardJumpBound(t *testing.T) {
	const day = 24 * time.Hour
	s := newSampler(t0, day, -1)
	if _, ok := sampleRecord(s, logs.Record{Time: t0.Add(367 * day), EventID: 1}); ok {
		t.Error("record 367 days past the origin accepted")
	}
	if s.late != 1 {
		t.Errorf("late = %d, want 1", s.late)
	}
	if s.bump(t0.Add(367 * day)); s.closeDue() > s.next || !s.hw.IsZero() {
		t.Errorf("shed timestamp 367 days ahead made %d ticks due, moved the mark to %v", s.closeDue()-s.next, s.hw)
	}
	if _, ok := sampleRecord(s, logs.Record{Time: t0.Add(365 * day), EventID: 1}); !ok {
		t.Error("record 365 days past the origin dropped: a year-long outage must be survivable")
	}
	// The wall clock is authoritative: after it moved the cursor two more
	// years on, a record there is current, not ahead of the stale mark.
	closeTicks(s, s.closeBy(t0.Add(3*365*day)))
	if _, ok := sampleRecord(s, logs.Record{Time: t0.Add(3*365*day + time.Hour), EventID: 1}); !ok {
		t.Error("record just past an advanceTo cursor dropped as too far ahead")
	}
	// A bounded (replay) session keeps its own rule: in-window is in.
	b := newSampler(t0, day, 800)
	if _, ok := sampleRecord(b, logs.Record{Time: t0.Add(700 * day), EventID: 1}); !ok {
		t.Error("bounded session dropped an in-window record")
	}
}

// sampleRecord is the sampler's half of Session.sample: admit, close the
// ticks that made due (returning how many), insert.
func sampleRecord(s *sampler, rec logs.Record) (closed int, ok bool) {
	idx, ok := s.admit(rec)
	closed = closeTicks(s, s.closeDue())
	if ok {
		s.insert(idx, rec)
	}
	return closed, ok
}

// closeTicks closes every tick before target without running them
// anywhere, and returns how many it closed.
func closeTicks(s *sampler, target int) int {
	n := 0
	for ; s.next < target; n++ {
		s.closeNext()
	}
	return n
}

func TestSessionShedsUnderOverloadAndRecovers(t *testing.T) {
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	cfg := DefaultConfig()
	cfg.MaxBuffered = 8
	s := New(predict.NewEngine(pairModel(), nil, predict.DefaultConfig()), nil, cfg).NewSession(t0)

	var preds []predict.Prediction
	// The chain trigger, then a flood that fills the open-tick buffer.
	preds = append(preds, feedOK(t, s, logs.Record{Time: t0.Add(5 * time.Second), EventID: 1, Location: node})...)
	for i := 0; i < 9; i++ {
		preds = append(preds, feedOK(t, s, logs.Record{
			Time: t0.Add(6 * time.Second), EventID: 3, Location: node,
			Message: fmt.Sprintf("flood %d", i),
		})...)
	}
	// Buffer full: this record is shed, but its timestamp still closes
	// ticks — including tick 0, whose trigger fires a degraded prediction.
	preds = append(preds, feedOK(t, s, logs.Record{Time: t0.Add(65 * time.Second), EventID: 2, Location: node})...)

	if len(preds) != 1 {
		t.Fatalf("predictions = %d, want 1", len(preds))
	}
	if !preds[0].Degraded {
		t.Error("prediction fired while shedding is not flagged Degraded")
	}

	// The flood drained with tick 0; shedding clears below half the bound
	// and clean operation resumes: a fresh trigger fires undegraded.
	preds = preds[:0]
	preds = append(preds, feedOK(t, s, logs.Record{Time: t0.Add(85 * time.Second), EventID: 1, Location: node})...)
	preds = append(preds, s.AdvanceTo(t0.Add(200*time.Second))...)
	if len(preds) != 1 {
		t.Fatalf("post-recovery predictions = %d, want 1", len(preds))
	}
	if preds[0].Degraded {
		t.Error("prediction after recovery still flagged Degraded")
	}

	res := s.Close()
	if res.Stats.ShedRecords != 3 {
		t.Errorf("ShedRecords = %d, want 3", res.Stats.ShedRecords)
	}
	if !res.Stats.Degraded {
		t.Error("Stats.Degraded not set for a run that shed load")
	}
	if res.Stats.DegradedTicks == 0 {
		t.Error("DegradedTicks = 0, want > 0")
	}
}

// TestRunShedsUnderOverload replays the same burst tick: a replay sheds
// like the live session and flags what it emits meanwhile, but — unlike
// Feed — it has stamped a record by the time it decides to shed it.
func TestRunShedsUnderOverload(t *testing.T) {
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	cfg := DefaultConfig()
	cfg.MaxBuffered = 8

	recs := []logs.Record{{Time: t0.Add(5 * time.Second), EventID: 1, Location: node}}
	for i := 0; i < 9; i++ {
		recs = append(recs, logs.Record{
			Time: t0.Add(6 * time.Second), EventID: 3, Location: node,
			Message: fmt.Sprintf("flood %d", i),
		})
	}
	recs = append(recs, logs.Record{Time: t0.Add(65 * time.Second), EventID: 2, Location: node})

	res, err := New(predict.NewEngine(pairModel(), nil, predict.DefaultConfig()), nil, cfg).
		Run(context.Background(), logs.NewSliceSource(recs), t0, t0.Add(200*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.ShedRecords != 3 {
		t.Errorf("ShedRecords = %d, want 3", res.Stats.ShedRecords)
	}
	if len(res.Predictions) != 1 {
		t.Fatalf("predictions = %d, want 1", len(res.Predictions))
	}
	if !res.Predictions[0].Degraded {
		t.Error("prediction fired while shedding is not flagged Degraded")
	}
	if !res.Stats.Degraded || res.Stats.DegradedTicks == 0 {
		t.Errorf("Degraded = %v, DegradedTicks = %d for a replay that shed load", res.Stats.Degraded, res.Stats.DegradedTicks)
	}
	st := res.Stats.Stages
	if st[stageTemplate].Out != st[stageSource].Out || st[stageSource].Out != int64(len(recs)) {
		t.Errorf("template out = %d, source out = %d, want both %d (stamp precedes shed in a replay)",
			st[stageTemplate].Out, st[stageSource].Out, len(recs))
	}
	if got, want := st[stageSample].In, int64(len(recs)-3); got != want {
		t.Errorf("sample in = %d, want %d", got, want)
	}
}

// panickyLearner is a TemplateLearner whose implementation is broken.
type panickyLearner struct{ calls int }

func (p *panickyLearner) Learn(msg string, sev logs.Severity) *helo.Template {
	p.calls++
	panic("organizer bug")
}

func TestSupervisedTemplateStagePanicsDegradeNotCrash(t *testing.T) {
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	org := &panickyLearner{}
	s := New(predict.NewEngine(pairModel(), nil, predict.DefaultConfig()), org, DefaultConfig()).NewSession(t0)

	// Unstamped records force the organizer; every call panics. The
	// stream must keep flowing: panics are recovered and counted until
	// the breaker trips, then records pass through unstamped.
	for i := 0; i < 8; i++ {
		s.Feed(logs.Record{
			Time: t0.Add(time.Duration(i) * time.Second), EventID: -1,
			Location: node, Message: "unseen shape",
		})
	}
	res := s.Close()
	st := res.Stats.Stages[stageTemplate]
	if st.Panics != 5 { // resilience.DefaultMaxFailures
		t.Errorf("template Panics = %d, want 5", st.Panics)
	}
	if st.Bypassed != 3 {
		t.Errorf("template Bypassed = %d, want 3", st.Bypassed)
	}
	if st.Health != "degraded" {
		t.Errorf("template Health = %q, want %q", st.Health, "degraded")
	}
	if org.calls != 5 {
		t.Errorf("organizer invoked %d times, want 5 (breaker must bypass after trip)", org.calls)
	}
	// Unstamped records carry no signal; nothing was sampled, nothing
	// fired, and — the point — nothing crashed.
	if res.Stats.Messages != 0 {
		t.Errorf("Messages = %d, want 0", res.Stats.Messages)
	}
	if !res.Stats.Degraded {
		t.Error("Stats.Degraded not set with a tripped stage breaker")
	}
}
