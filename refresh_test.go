package elsa

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMonitorRefreshRetrainsFromStream exercises incremental retraining
// at the public API: a monitor fed live records accumulates statistics
// as a side effect, and Refresh rebuilds the chain set from those
// counters without replaying the stream.
func TestMonitorRefreshRetrainsFromStream(t *testing.T) {
	log := GenerateBGL(90, apiStart, 4*24*time.Hour)
	cut := apiStart.Add(2 * 24 * time.Hour)
	train, test, _ := log.Split(cut)
	model := Train(train, apiStart, cut, DefaultTrainConfig())
	mon := model.NewMonitor(cut)

	// Before any tick has closed there is nothing to retrain from.
	if st := mon.Refresh(); st != (RefreshStats{}) {
		t.Fatalf("refresh before any tick = %+v, want zero", st)
	}

	var preds []Prediction
	half := len(test) / 2
	for _, r := range test[:half] {
		preds = append(preds, feedOK(t, mon, r)...)
	}
	st := mon.Refresh()
	if st.Dirty == 0 || st.Scored == 0 {
		t.Fatalf("refresh saw no dirty pairs: %+v", st)
	}
	if st.Seeds == 0 || st.Chains == 0 {
		t.Fatalf("refresh mined nothing from a 2-day BG/L stream: %+v", st)
	}
	if !st.Remined {
		t.Errorf("first refresh must run the full miner: %+v", st)
	}
	if st.Duration <= 0 {
		t.Errorf("Duration = %v, want > 0", st.Duration)
	}
	if st.Pairs.Scored+st.Pairs.Pruned() != st.Pairs.Candidates {
		t.Errorf("pair telemetry does not partition: %+v", st.Pairs)
	}
	if got := len(model.Chains()); got != st.Chains {
		t.Errorf("model holds %d chains, refresh reported %d", got, st.Chains)
	}

	// The refreshed chain set is live: the monitor keeps predicting.
	for _, r := range test[half:] {
		preds = append(preds, feedOK(t, mon, r)...)
	}
	preds = append(preds, mon.AdvanceTo(log.End)...)
	mon.Close()
	if len(preds) == 0 {
		t.Fatal("monitor emitted no predictions after refresh")
	}
}

// TestResumedMonitorRefreshMatchesUninterrupted is the crash-resume
// acceptance test for incremental retraining. The model file is saved at
// training time — before any refresh — so the refreshed chains, the
// merged severity view and the refresher's seed state can only reach the
// second incarnation through the monitor snapshot. The resumed monitor
// must emit the uninterrupted monitor's predictions exactly, and its
// next Refresh must behave identically (fast path and all).
func TestResumedMonitorRefreshMatchesUninterrupted(t *testing.T) {
	checkResumedRefresh(t, 91, 2*day, 2*day)
}

// TestResumedMonitorRefreshAfterTrimMatchesUninterrupted kills the
// monitor after its live window has started to slide: one day of
// training arms an 8 640-tick window, the snapshot falls at tick ~10 770
// of a 2.5-day stream, between the trims at 8 644 and 10 805. The trim
// cursor must ride the snapshot — a resumed accumulator that restarted
// it would next trim a quarter-window after the snapshot instead of some
// thirty ticks after it, Refresh would score other trains, and the final
// accumulator state would differ.
func TestResumedMonitorRefreshAfterTrimMatchesUninterrupted(t *testing.T) {
	if cursor := checkResumedRefresh(t, 91, day, 5*day/2); cursor <= 8640 {
		t.Fatalf("snapshot trim cursor = %d: the window had not slid yet, the scenario proves nothing", cursor)
	}
}

// accumBytes is the monitor's accumulator state as it would ride a
// snapshot.
func accumBytes(t *testing.T, mo *Monitor) []byte {
	t.Helper()
	b, err := json.Marshal(mo.pipe.Accumulator().State())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkResumedRefresh trains on the first trainSpan of a BG/L log, then
// runs the rest twice — uninterrupted, and killed half way, right after
// a Refresh, and resumed from a stale model file plus the snapshot — and
// requires the same predictions, Refresh results, chains and accumulator
// bytes from both. It returns the trim cursor the snapshot carried.
func checkResumedRefresh(t *testing.T, seed int64, trainSpan, streamSpan time.Duration) (trimCursor int) {
	log := GenerateBGL(seed, apiStart, trainSpan+streamSpan)
	cut := apiStart.Add(trainSpan)
	train, test, _ := log.Split(cut)
	half := len(test) / 2

	// Uninterrupted reference: refresh mid-stream, finish, refresh again.
	ref := Train(train, apiStart, cut, DefaultTrainConfig()).NewMonitor(cut)
	var want []Prediction
	for _, r := range test[:half] {
		want = append(want, feedOK(t, ref, r)...)
	}
	wantMid := ref.Refresh()
	for _, r := range test[half:] {
		want = append(want, feedOK(t, ref, r)...)
	}
	want = append(want, ref.AdvanceTo(log.End)...)
	wantEnd := ref.Refresh()
	wantChains := ref.model.Chains()
	wantAccum := accumBytes(t, ref)
	ref.Close()
	if wantMid.Chains == 0 || len(want) == 0 {
		t.Fatal("fixture too quiet: reference run refreshed or predicted nothing")
	}

	// First incarnation. The model blob is written before the monitor
	// runs, as a daemon would: train once, save, then watch.
	model := Train(train, apiStart, cut, DefaultTrainConfig())
	var modelBlob strings.Builder
	if err := model.Save(&modelBlob); err != nil {
		t.Fatalf("Save: %v", err)
	}
	mon := model.NewMonitor(cut)
	var got []Prediction
	for _, r := range test[:half] {
		got = append(got, feedOK(t, mon, r)...)
	}
	gotMid := mon.Refresh()
	wantMid.Duration, gotMid.Duration = 0, 0
	if gotMid != wantMid {
		t.Fatalf("mid-stream refresh diverged:\ncrashed       %+v\nuninterrupted %+v", gotMid, wantMid)
	}
	var snapBlob strings.Builder
	if err := mon.Snapshot(&snapBlob); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	trimCursor = mon.pipe.Accumulator().State().LastTrim

	// Second incarnation: stale model file + post-refresh snapshot.
	reloaded, err := LoadModel(strings.NewReader(modelBlob.String()))
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	resumed, err := reloaded.ResumeMonitor(strings.NewReader(snapBlob.String()))
	if err != nil {
		t.Fatalf("ResumeMonitor: %v", err)
	}
	if !reflect.DeepEqual(reloaded.Chains(), model.Chains()) {
		t.Fatal("resume did not install the refreshed chains from the snapshot")
	}
	for _, r := range test[half:] {
		got = append(got, feedOK(t, resumed, r)...)
	}
	got = append(got, resumed.AdvanceTo(log.End)...)
	gotEnd := resumed.Refresh()
	gotAccum := accumBytes(t, resumed)
	resumed.Close()

	if len(got) != len(want) {
		t.Fatalf("resumed stream emitted %d predictions, uninterrupted %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("prediction %d differs:\nresumed       %+v\nuninterrupted %+v", i, got[i], want[i])
		}
	}
	wantEnd.Duration, gotEnd.Duration = 0, 0
	if gotEnd != wantEnd {
		t.Fatalf("post-resume refresh diverged:\nresumed       %+v\nuninterrupted %+v", gotEnd, wantEnd)
	}
	if !reflect.DeepEqual(reloaded.Chains(), wantChains) {
		t.Fatal("post-resume refresh produced different chains than the uninterrupted run")
	}
	if !bytes.Equal(gotAccum, wantAccum) {
		t.Fatal("resumed accumulator state differs from the uninterrupted run's")
	}
	return trimCursor
}
