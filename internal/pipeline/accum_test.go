package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/sig"
)

// accumConfigFor derives the accumulator arming matching a model's
// cross-correlation settings, as the monitor does.
func accumConfigFor() *sig.AccumConfig {
	cc := sig.DefaultCrossCorrConfig()
	return &sig.AccumConfig{MaxLag: cc.MaxLag, MinCount: cc.MinCount}
}

// TestSessionAccumulatorTapIsPassive: arming the accumulator must not
// change a single emitted prediction — the tap only reads the hit
// stream — while the accumulator itself fills with the stream's outlier
// statistics.
func TestSessionAccumulatorTapIsPassive(t *testing.T) {
	model, profiles, test, cut, end := trained(t, 511)

	plain := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, DefaultConfig())
	if plain.Accumulator() != nil {
		t.Fatal("accumulator armed without Config.Accumulate")
	}
	sp := plain.NewSession(cut)
	var want []predict.Prediction
	for _, r := range test {
		want = append(want, feedOK(t, sp, r)...)
	}
	want = append(want, sp.AdvanceTo(end)...)

	cfg := DefaultConfig()
	cfg.Accumulate = accumConfigFor()
	armed := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, cfg)
	sa := armed.NewSession(cut)
	var got []predict.Prediction
	for _, r := range test {
		got = append(got, feedOK(t, sa, r)...)
	}
	got = append(got, sa.AdvanceTo(end)...)

	samePredictions(t, got, want, "armed", "plain")

	ac := armed.Accumulator()
	if ac == nil || ac.Ticks() == 0 || ac.Events() == 0 {
		t.Fatalf("accumulator empty after a full stream: %+v", ac)
	}
	// The severity tap must have recorded error-severity events (the
	// stream contains failures).
	worst := 0
	for _, es := range ac.EventStats() {
		if es.MaxSeverity > worst {
			worst = es.MaxSeverity
		}
	}
	if logs.Severity(worst) < logs.Error {
		t.Fatalf("worst recorded severity = %v, want >= Error", logs.Severity(worst))
	}

	// A replay is the same session bounded to the window: its tap must
	// leave the accumulator in the very state the fed session did.
	replayed := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, cfg)
	if _, err := replayed.Run(context.Background(), logs.NewSliceSource(test), cut, end); err != nil {
		t.Fatalf("Run: %v", err)
	}
	fed, _ := json.Marshal(ac.State())
	run, _ := json.Marshal(replayed.Accumulator().State())
	if !bytes.Equal(run, fed) {
		t.Fatal("replayed accumulator state differs from the fed session's")
	}
}

// TestResumedAccumulatorMatchesUninterrupted extends the crash-resume
// contract to the incremental statistics: kill a session mid-stream
// with in-flight accumulator state (live ring, dirty pairs), resume on
// a fresh pipeline, finish the stream — the final accumulator must be
// byte-identical to the uninterrupted run's, and the predictions too.
func TestResumedAccumulatorMatchesUninterrupted(t *testing.T) {
	checkResumedAccumulator(t, 0)
}

// TestResumedAccumulatorAfterTrimMatchesUninterrupted is the same kill
// with the spike trains sliding over an 8 000-tick window: the kill, at
// tick 12 966 of the three-day stream, falls between the trims at 12 006
// and 14 007, and the trim cursor in the session snapshot is what keeps
// the resumed accumulator trimming on the uninterrupted one's ticks.
func TestResumedAccumulatorAfterTrimMatchesUninterrupted(t *testing.T) {
	const window = 8000
	if cursor := checkResumedAccumulator(t, window); cursor <= window {
		t.Fatalf("snapshot trim cursor = %d: the window had not slid yet", cursor)
	}
}

// checkResumedAccumulator runs the kill/resume comparison with the
// accumulator's horizon capped at horizonCap ticks (0: unbounded) and
// returns the trim cursor the snapshot carried.
func checkResumedAccumulator(t *testing.T, horizonCap int) (trimCursor int) {
	model, profiles, test, cut, end := trained(t, 513)

	cfg := DefaultConfig()
	cfg.Accumulate = accumConfigFor()
	cfg.Accumulate.HorizonCap = horizonCap

	ref := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, cfg)
	rs := ref.NewSession(cut)
	var want []predict.Prediction
	for _, r := range test {
		want = append(want, feedOK(t, rs, r)...)
	}
	want = append(want, rs.AdvanceTo(end)...)
	wantAcc, err := json.Marshal(ref.Accumulator().State())
	if err != nil {
		t.Fatal(err)
	}

	half := len(test) / 2
	p1 := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, cfg)
	s1 := p1.NewSession(cut)
	var got []predict.Prediction
	for _, r := range test[:half] {
		got = append(got, feedOK(t, s1, r)...)
	}
	st, err := s1.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Accum == nil {
		t.Fatal("snapshot missing accumulator state")
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var loaded SessionState
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatal(err)
	}

	p2 := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, cfg)
	s2, err := p2.ResumeSession(&loaded)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range test[half:] {
		got = append(got, feedOK(t, s2, r)...)
	}
	got = append(got, s2.AdvanceTo(end)...)

	samePredictions(t, got, want, "resumed", "uninterrupted")
	gotAcc, err := json.Marshal(p2.Accumulator().State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotAcc, wantAcc) {
		t.Fatal("resumed accumulator state diverges from uninterrupted run")
	}
	return loaded.Accum.LastTrim
}

// TestSessionSyncChainsAfterRefresh: a mid-session Model.Refresh from
// the live accumulator plus SyncChains leaves the session predicting
// with the refreshed chain set and an updated chain inventory.
func TestSessionSyncChainsAfterRefresh(t *testing.T) {
	model, profiles, test, cut, end := trained(t, 514)

	cfg := DefaultConfig()
	cfg.Accumulate = accumConfigFor()
	p := New(predict.NewEngine(model, profiles, predict.DefaultConfig()), nil, cfg)
	s := p.NewSession(cut)

	half := len(test) / 2
	var preds []predict.Prediction
	for _, r := range test[:half] {
		preds = append(preds, feedOK(t, s, r)...)
	}
	if p.Accumulator().Ticks() == 0 {
		t.Fatal("no ticks accumulated before refresh")
	}
	rst := model.Refresh(p.Accumulator(), trainCfgForTest())
	if rst.Chains == 0 {
		t.Fatalf("refresh produced no chains: %+v", rst)
	}
	if n := s.SyncChains(); n != s.Result().Stats.ChainsLoaded {
		t.Fatalf("SyncChains = %d, stats say %d", n, s.Result().Stats.ChainsLoaded)
	}
	for _, r := range test[half:] {
		preds = append(preds, feedOK(t, s, r)...)
	}
	preds = append(preds, s.AdvanceTo(end)...)
	if len(preds) == 0 {
		t.Fatal("no predictions after mid-session refresh")
	}
}

func trainCfgForTest() correlate.Config { return correlate.DefaultConfig() }
