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

func TestDedupRingEvictsOldest(t *testing.T) {
	d := newDedupRing(3)
	for k := uint64(1); k <= 3; k++ {
		if d.observe(k) {
			t.Fatalf("fresh key %d reported duplicate", k)
		}
	}
	if !d.observe(2) {
		t.Fatal("remembered key 2 not reported duplicate")
	}
	// 2 was re-inserted, evicting 1 (oldest); 1 is novel again.
	if d.observe(4) {
		t.Fatal("fresh key 4 reported duplicate")
	}
	if d.observe(1) {
		t.Fatal("evicted key 1 still reported duplicate")
	}
}

func TestDedupRingSnapshotRoundTrip(t *testing.T) {
	d := newDedupRing(4)
	for k := uint64(10); k < 16; k++ { // overflows: keeps 12..15
		d.observe(k)
	}
	r := newDedupRing(4)
	r.restore(d.keys())
	for k := uint64(12); k < 16; k++ {
		if !r.observe(k) {
			t.Errorf("restored ring forgot key %d", k)
		}
	}
	if r.observe(11) {
		t.Error("restored ring remembers evicted key 11")
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
	sample := s.p.Quarantined()
	if len(sample) != 4 {
		t.Fatalf("quarantine sample holds %d records, want 4", len(sample))
	}
	if sample[0].Reason != "zero timestamp" {
		t.Errorf("first sampled reason = %q, want %q", sample[0].Reason, "zero timestamp")
	}
}

func TestSessionDedupSuppressesExactDuplicateBursts(t *testing.T) {
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	cfg := DefaultConfig()
	cfg.DedupWindow = 64
	s := New(predict.NewEngine(pairModel(), nil, predict.DefaultConfig()), nil, cfg).NewSession(t0)

	burst := logs.Record{Time: t0.Add(5 * time.Second), EventID: 1, Location: node, Message: "retry storm"}
	for i := 0; i < 5; i++ {
		s.Feed(burst)
	}
	// Any differing field makes the record novel again.
	other := burst
	other.Message = "retry storm 2"
	s.Feed(other)

	res := s.Close()
	if res.Stats.DedupedRecords != 4 {
		t.Errorf("DedupedRecords = %d, want 4", res.Stats.DedupedRecords)
	}
	if res.Stats.Messages != 2 {
		t.Errorf("Messages = %d, want 2 (one per distinct record)", res.Stats.Messages)
	}
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
