package elsa

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/outlier"
)

// TestResumedMonitorMatchesUninterrupted is the crash-resume acceptance
// test at the public API: run a monitor over half the stream, snapshot
// it (mid-stream, wherever the split lands), save and reload the model,
// resume a fresh monitor from the snapshot, feed the second half — and
// the combined prediction stream must match an uninterrupted monitor's
// exactly: no prediction repeated, none missing, every field identical.
func TestResumedMonitorMatchesUninterrupted(t *testing.T) {
	log := GenerateBGL(85, apiStart, 4*24*time.Hour)
	cut := apiStart.Add(2 * 24 * time.Hour)
	train, test, _ := log.Split(cut)

	// Uninterrupted reference (fresh identical model: monitors mutate
	// organizer state by learning online).
	ref := Train(train, apiStart, cut, DefaultTrainConfig()).NewMonitor(cut)
	var want []Prediction
	for _, r := range test {
		want = append(want, feedOK(t, ref, r)...)
	}
	want = append(want, ref.AdvanceTo(log.End)...)
	ref.Close()
	if len(want) == 0 {
		t.Fatal("reference monitor emitted no predictions; the fixture is too quiet to test resume")
	}

	// First incarnation: half the stream, then the crash artefacts — a
	// saved model and a monitor snapshot.
	model := Train(train, apiStart, cut, DefaultTrainConfig())
	mon := model.NewMonitor(cut)
	var got []Prediction
	half := len(test) / 2
	for _, r := range test[:half] {
		got = append(got, feedOK(t, mon, r)...)
	}
	var modelBlob, snapBlob strings.Builder
	if err := model.Save(&modelBlob); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := mon.Snapshot(&snapBlob); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// Second incarnation: a new process — model reloaded from disk,
	// monitor resumed from the snapshot, rest of the stream fed.
	reloaded, err := LoadModel(strings.NewReader(modelBlob.String()))
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	resumed, err := reloaded.ResumeMonitor(strings.NewReader(snapBlob.String()))
	if err != nil {
		t.Fatalf("ResumeMonitor: %v", err)
	}
	for _, r := range test[half:] {
		got = append(got, feedOK(t, resumed, r)...)
	}
	got = append(got, resumed.AdvanceTo(log.End)...)
	res := resumed.Close()

	if len(got) != len(want) {
		t.Fatalf("resumed stream emitted %d predictions, uninterrupted %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("prediction %d differs:\nresumed       %+v\nuninterrupted %+v", i, got[i], want[i])
		}
	}
	// The accumulated result carries the full history across the crash.
	if len(res.Predictions) != len(want) {
		t.Errorf("resumed result holds %d predictions, want %d", len(res.Predictions), len(want))
	}
}

func TestSnapshotOfClosedMonitorFails(t *testing.T) {
	model, _, cut := trainSmallModel(t, 86)
	mon := model.NewMonitor(cut)
	mon.Close()
	var sb strings.Builder
	if err := mon.Snapshot(&sb); err == nil {
		t.Fatal("Snapshot of a closed monitor did not fail")
	}
}

func TestResumeMonitorRejectsBadSnapshots(t *testing.T) {
	model, _, cut := trainSmallModel(t, 87)

	if _, err := model.ResumeMonitor(strings.NewReader("{broken")); err == nil {
		t.Error("broken JSON accepted")
	}

	var vErr *ErrVersionMismatch
	_, err := model.ResumeMonitor(strings.NewReader(`{"version": 99}`))
	if !errors.As(err, &vErr) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if vErr.Got != 99 || vErr.Want != monitorFormatVersion || vErr.Kind != "monitor snapshot" {
		t.Errorf("ErrVersionMismatch = %+v, want Got 99 / Want %d / Kind %q", vErr, monitorFormatVersion, "monitor snapshot")
	}

	if _, err := model.ResumeMonitor(strings.NewReader(fmt.Sprintf(`{"version": %d}`, monitorFormatVersion))); err == nil {
		t.Error("snapshot without session state accepted")
	}
	if _, err := model.ResumeMonitor(strings.NewReader(fmt.Sprintf(`{"version": %d, "bogus": true}`, monitorFormatVersion))); err == nil {
		t.Error("snapshot with unknown fields accepted")
	}

	// A snapshot referencing state the model does not have (here: a
	// detector for an event the model never mined) must be refused, not
	// resumed into silent corruption.
	mon := model.NewMonitor(cut)
	var snap bytes.Buffer
	if err := mon.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	doctored := forgeSnapshot(t, snap.Bytes(), func(env map[string]any) {
		object(t, env, "session", "engine", "detectors")["999999"] = map[string]any{"raw": []int{1}}
	})
	if _, err := model.ResumeMonitor(bytes.NewReader(doctored)); err == nil {
		t.Error("snapshot referencing an unknown detector accepted")
	}
}

// forgeSnapshot decodes a snapshot, lets mutate edit the envelope and
// encodes it again, so a forgery names the field it plants or rewrites
// and does not depend on the encoder's whitespace or key order. Numbers
// keep their literal text.
func forgeSnapshot(t testing.TB, snap []byte, mutate func(env map[string]any)) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(snap))
	dec.UseNumber()
	var env map[string]any
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("the snapshot to forge does not decode: %v", err)
	}
	mutate(env)
	forged, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return forged
}

// object walks path down nested JSON objects and fails the test when the
// envelope has no such object: a forgery that plants nothing proves
// nothing.
func object(t testing.TB, env map[string]any, path ...string) map[string]any {
	t.Helper()
	for i, key := range path {
		next, ok := env[key].(map[string]any)
		if !ok {
			t.Fatalf("snapshot has no object at %s; envelope layout changed?", strings.Join(path[:i+1], "."))
		}
		env = next
	}
	return env
}

func TestMonitorCloseIdempotent(t *testing.T) {
	model, log, cut := trainSmallModel(t, 89)
	_, test, _ := log.Split(cut)
	if len(test) > 2000 {
		test = test[:2000]
	}
	mon := model.NewMonitor(cut)
	for _, r := range test {
		mon.Feed(r)
	}
	res1 := mon.Close()
	res2 := mon.Close()
	if res1 != res2 {
		t.Fatal("second Close returned a different result pointer")
	}
	preds, err := mon.Feed(Record{Time: log.End, EventID: 0})
	if err != ErrClosed {
		t.Errorf("Feed after Close: err = %v, want ErrClosed", err)
	}
	if preds != nil {
		t.Error("closed monitor accepted a record")
	}
	if preds := mon.AdvanceTo(log.End.Add(time.Hour)); preds != nil {
		t.Error("closed monitor advanced")
	}
}

// fuzzResumeModel loads the hand-sized model of FuzzLoadModel retrained,
// so to speak, on ten minutes: a 60-tick live window puts the first
// horizon trim 16 ticks into the stream, which keeps a snapshot taken
// after it small enough to fuzz.
func fuzzResumeModel(t testing.TB) *Model {
	t.Helper()
	blob := strings.Replace(smallModelJSON, `"TrainEnd":"2006-07-01T06:00:00Z"`, `"TrainEnd":"2006-07-01T00:10:00Z"`, 1)
	m, err := LoadModel(strings.NewReader(blob))
	if err != nil || blob == smallModelJSON {
		t.Fatalf("the seed model no longer loads with a ten-minute span: %v", err)
	}
	return m
}

// resumeSeed is a snapshot of a monitor over fuzzResumeModel taken after
// the live window's first trim: a non-zero trim cursor rides in it.
func resumeSeed(t testing.TB) []byte {
	t.Helper()
	start := time.Date(2006, 7, 1, 0, 10, 0, 0, time.UTC)
	mon := fuzzResumeModel(t).NewMonitor(start)
	for i, msg := range []string{"link error on port 7", "node card failed hard", "link error on port 9"} {
		feedOK(t, mon, Record{Time: start.Add(time.Duration(i) * 70 * time.Second), Severity: Severe, Message: msg, EventID: -1})
	}
	mon.AdvanceTo(start.Add(5 * time.Minute))
	var seed bytes.Buffer
	if err := mon.Snapshot(&seed); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Session struct {
			Accum struct {
				LastTrim int `json:"last_trim"`
			} `json:"accum"`
		} `json:"session"`
	}
	if err := json.Unmarshal(seed.Bytes(), &env); err != nil || env.Session.Accum.LastTrim != 16 {
		t.Fatalf("the seed snapshot carries trim cursor %d (%v), want 16:\n%s", env.Session.Accum.LastTrim, err, seed.Bytes())
	}
	return seed.Bytes()
}

// asVersion relabels a snapshot as format version v.
func asVersion(t testing.TB, snap []byte, v int) []byte {
	return forgeSnapshot(t, snap, func(env map[string]any) { env["version"] = v })
}

// TestResumeMonitorRejectsVersion1: version 1 stage counters carried a
// supervised-restart count the envelope no longer has. A version 1
// snapshot must fail as what it is — another format version, the signal
// to start a fresh monitor — whatever else it holds.
func TestResumeMonitorRejectsVersion1(t *testing.T) {
	_, err := fuzzResumeModel(t).ResumeMonitor(bytes.NewReader(asVersion(t, resumeSeed(t), 1)))
	var vErr *ErrVersionMismatch
	if !errors.As(err, &vErr) || vErr.Got != 1 || vErr.Want != monitorFormatVersion {
		t.Fatalf("err = %v, want ErrVersionMismatch{Got: 1, Want: %d}", err, monitorFormatVersion)
	}
}

// TestResumeMonitorRejectsVersion2: version 2 sessions carried the grace
// and dedup-ring fields, deduplication counters and a sink stage row the
// envelope no longer has. Same contract: a typed version error, not a
// decode error about whichever field the strict decoder meets first.
func TestResumeMonitorRejectsVersion2(t *testing.T) {
	_, err := fuzzResumeModel(t).ResumeMonitor(bytes.NewReader(asVersion(t, resumeSeed(t), 2)))
	var vErr *ErrVersionMismatch
	if !errors.As(err, &vErr) || vErr.Got != 2 || vErr.Want != monitorFormatVersion {
		t.Fatalf("err = %v, want ErrVersionMismatch{Got: 2, Want: %d}", err, monitorFormatVersion)
	}
}

// TestResumeMonitorRejectsVersion3: a version 3 accumulator carried the
// co-occurrence mass and the regime flag ("exact", "mass", and past the
// budget the prev/cur block counts) the envelope no longer has. Same
// contract — the typed version error, before the strict decoder can
// complain about "exact".
func TestResumeMonitorRejectsVersion3(t *testing.T) {
	seed := asVersion(t, resumeSeed(t), 3)
	v3 := forgeSnapshot(t, seed, func(env map[string]any) {
		accum := object(t, env, "session", "accum")
		accum["exact"], accum["mass"] = true, 12
	})
	for _, snap := range [][]byte{seed, v3} {
		_, err := fuzzResumeModel(t).ResumeMonitor(bytes.NewReader(snap))
		var vErr *ErrVersionMismatch
		if !errors.As(err, &vErr) || vErr.Got != 3 || vErr.Want != monitorFormatVersion {
			t.Fatalf("err = %v, want ErrVersionMismatch{Got: 3, Want: %d}", err, monitorFormatVersion)
		}
	}
}

// forgeThreshold rewrites the HELO merge threshold a snapshot carries.
func forgeThreshold(t testing.TB, snap []byte, v string) []byte {
	t.Helper()
	return forgeSnapshot(t, snap, func(env map[string]any) {
		helo := object(t, env, "helo")
		if _, ok := helo["threshold"]; !ok {
			t.Fatal("could not forge the threshold; envelope layout changed?")
		}
		helo["threshold"] = json.Number(v)
	})
}

// TestResumeMonitorRejectsForgedThreshold: the snapshot's organizer
// replaces the model's, so its threshold is checked like the model
// file's (TestLoadModelRejectsForgedThreshold).
func TestResumeMonitorRejectsForgedThreshold(t *testing.T) {
	seed := resumeSeed(t)
	for _, v := range []string{"2", "0", "-1"} {
		_, err := fuzzResumeModel(t).ResumeMonitor(bytes.NewReader(forgeThreshold(t, seed, v)))
		if err == nil || !strings.Contains(err.Error(), "threshold") {
			t.Errorf("snapshot with threshold %s: err = %v, want a threshold error", v, err)
		}
	}
	if _, err := fuzzResumeModel(t).ResumeMonitor(bytes.NewReader(seed)); err != nil {
		t.Errorf("the unforged snapshot no longer resumes: %v", err)
	}
}

// TestResumeMonitorAcceptsIndentedSnapshot: snapshots were written
// indented, one window sample a line, until the encoder went compact
// under the same format version. A blob in the old layout must resume to
// the same state.
func TestResumeMonitorAcceptsIndentedSnapshot(t *testing.T) {
	seed := resumeSeed(t)
	var indented bytes.Buffer
	if err := json.Indent(&indented, seed, "", " "); err != nil {
		t.Fatal(err)
	}
	if indented.Len() <= len(seed) {
		t.Fatalf("Snapshot still writes white space: %d bytes indented, %d as written", indented.Len(), len(seed))
	}
	mon, err := fuzzResumeModel(t).ResumeMonitor(&indented)
	if err != nil {
		t.Fatalf("an indented snapshot no longer resumes: %v", err)
	}
	var again bytes.Buffer
	if err := mon.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), seed) {
		t.Errorf("resumed from the indented layout, the monitor snapshots differently:\n%s\nvs\n%s", again.Bytes(), seed)
	}
}

// forgeUnevenWindows cuts event 0's corrected window in a snapshot to
// one sample, leaving its raw window longer.
func forgeUnevenWindows(t testing.TB, snap []byte) []byte {
	t.Helper()
	return forgeSnapshot(t, snap, func(env map[string]any) {
		det := object(t, env, "session", "engine", "detectors", "0")
		raw, ok := det["raw"].([]any)
		if !ok || len(raw) < 2 {
			t.Fatalf("event 0's raw window is %v; the seed no longer fills it", det["raw"])
		}
		det["cor"] = raw[:1]
	})
}

// TestResumeMonitorRejectsUnevenDetectorWindows: State never writes a
// detector whose raw and corrected windows differ in length, so a
// snapshot that holds one is refused with the typed
// *outlier.WindowShapeError, not resumed and not a panic.
func TestResumeMonitorRejectsUnevenDetectorWindows(t *testing.T) {
	_, err := fuzzResumeModel(t).ResumeMonitor(bytes.NewReader(forgeUnevenWindows(t, resumeSeed(t))))
	var shape *outlier.WindowShapeError
	if !errors.As(err, &shape) || shape.Cor != 1 || shape.Raw < 2 {
		t.Fatalf("err = %v, want an *outlier.WindowShapeError", err)
	}
}

// FuzzResumeMonitor: a monitor snapshot is bytes this process did not
// necessarily write. Arbitrary input must come back as an error, never
// a panic, and whatever ResumeMonitor accepts must be a fixed point of
// resume → Snapshot → resume → Snapshot, so a daemon that is killed
// again right after resuming loses nothing.
func FuzzResumeMonitor(f *testing.F) {
	seed := resumeSeed(f)
	f.Add(seed)
	f.Add(asVersion(f, seed, 1))
	f.Add(asVersion(f, seed, 2))
	f.Add(asVersion(f, seed, 3))
	f.Add([]byte(`{"version":3,"session":{"accum":{"max_lag":360,"exact":true,"mass":7,"last_tick":3,"last_trim":9}}}`))
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"session":{"accum":{"max_lag":360,"last_tick":3,"last_trim":9}}}`, monitorFormatVersion)))
	f.Add(forgeThreshold(f, seed, "2"))
	f.Add(forgeUnevenWindows(f, seed))
	f.Fuzz(func(t *testing.T, data []byte) {
		mon, err := fuzzResumeModel(t).ResumeMonitor(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := mon.Snapshot(&first); err != nil {
			t.Fatalf("resumed monitor does not snapshot: %v", err)
		}
		back, err := fuzzResumeModel(t).ResumeMonitor(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("snapshot of a resumed monitor does not resume: %v\n%s", err, first.Bytes())
		}
		if err := back.Snapshot(&second); err != nil {
			t.Fatalf("twice-resumed monitor does not snapshot: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("resume → Snapshot is not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
