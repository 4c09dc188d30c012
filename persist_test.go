package elsa

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func trainSmallModel(t *testing.T, seed int64) (*Model, *SyntheticLog, time.Time) {
	t.Helper()
	log := GenerateBGL(seed, apiStart, 5*24*time.Hour)
	cut := apiStart.Add(2 * 24 * time.Hour)
	train, _, _ := log.Split(cut)
	return Train(train, apiStart, cut, DefaultTrainConfig()), log, cut
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	model, log, cut := trainSmallModel(t, 60)
	var sb strings.Builder
	if err := model.Save(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Mode() != model.Mode() {
		t.Errorf("mode %v vs %v", back.Mode(), model.Mode())
	}
	if back.EventCount() != model.EventCount() {
		t.Errorf("events %d vs %d", back.EventCount(), model.EventCount())
	}
	if len(back.Chains()) != len(model.Chains()) {
		t.Fatalf("chains %d vs %d", len(back.Chains()), len(model.Chains()))
	}
	for i, c := range model.Chains() {
		if back.Chains()[i].Key() != c.Key() {
			t.Errorf("chain %d key %q vs %q", i, back.Chains()[i].Key(), c.Key())
		}
	}
	// Template text must survive.
	for id := 0; id < model.EventCount(); id++ {
		if back.EventTemplate(id) != model.EventTemplate(id) {
			t.Fatalf("template %d differs", id)
		}
	}
	// The reloaded model must predict identically.
	_, test, _ := log.Split(cut)
	a := model.Predict(test, cut, log.End)
	b := back.Predict(test, cut, log.End)
	if len(a.Predictions) != len(b.Predictions) {
		t.Fatalf("prediction counts differ after reload: %d vs %d",
			len(a.Predictions), len(b.Predictions))
	}
	for i := range a.Predictions {
		if a.Predictions[i] != b.Predictions[i] {
			t.Fatalf("prediction %d differs after reload", i)
		}
	}
}

func TestLoadModelRejectsBadInput(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("{broken")); err == nil {
		t.Error("broken JSON accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"version": 1}`)); err == nil {
		t.Error("missing model accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"version":1,"model":{}}`)); err == nil {
		t.Error("incomplete model accepted")
	}
	// The engine indexes its filters by event id, so a profile for an
	// id no template carries (here 1 << 40, with two templates) is
	// refused rather than sizing that index.
	forged := strings.Replace(smallModelJSON, `"Profiles":{"0":`, `"Profiles":{"1099511627776":{"Class":0},"0":`, 1)
	if forged == smallModelJSON {
		t.Fatal("could not forge a profile; model layout changed?")
	}
	if _, err := LoadModel(strings.NewReader(forged)); err == nil || !strings.Contains(err.Error(), "templates") {
		t.Errorf("profile for an event no template carries: err = %v", err)
	}
}

func TestLoadModelVersionMismatchIsTyped(t *testing.T) {
	var vErr *ErrVersionMismatch
	_, err := LoadModel(strings.NewReader(`{"version": 99}`))
	if !errors.As(err, &vErr) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if vErr.Got != 99 || vErr.Want != modelFormatVersion || vErr.Kind != "model" {
		t.Errorf("ErrVersionMismatch = %+v, want Got 99 / Want %d / Kind %q", vErr, modelFormatVersion, "model")
	}
	// The version probe runs before strict decoding: a future-format
	// file reports the mismatch, not whichever unknown field the strict
	// decoder would trip on first.
	_, err = LoadModel(strings.NewReader(`{"version": 2, "new_fangled": true}`))
	if !errors.As(err, &vErr) {
		t.Fatalf("future-format err = %v, want ErrVersionMismatch", err)
	}
}

func TestLoadModelRejectsUnknownFields(t *testing.T) {
	model, _, _ := trainSmallModel(t, 62)
	var sb strings.Builder
	if err := model.Save(&sb); err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(sb.String(), `"helo"`, `"helo_typo"`, 1)
	if mangled == sb.String() {
		t.Fatal("could not mangle the envelope; layout changed?")
	}
	if _, err := LoadModel(strings.NewReader(mangled)); err == nil {
		t.Error("envelope with an unknown field accepted (state silently dropped)")
	}
}

// TestLoadModelRejectsForgedThreshold: a merge threshold above 1 means no
// message ever merges, so a monitor over the loaded model opens a
// template per record and scans them all on the next — quadratic in the
// stream, and every table sized by event id grows with it.
func TestLoadModelRejectsForgedThreshold(t *testing.T) {
	for _, v := range []string{"2", "0", "-0.6", "1.0000001"} {
		if _, err := LoadModel(strings.NewReader(smallModelWithThreshold(t, v))); err == nil || !strings.Contains(err.Error(), "threshold") {
			t.Errorf("model with threshold %s: err = %v, want a threshold error", v, err)
		}
	}
	if _, err := LoadModel(strings.NewReader(smallModelWithThreshold(t, "1"))); err != nil {
		t.Errorf("model with threshold 1 rejected: %v", err)
	}
}

func TestSavedModelIsStableJSON(t *testing.T) {
	model, _, _ := trainSmallModel(t, 61)
	var a, b strings.Builder
	if err := model.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := model.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("Save is not deterministic")
	}
	if !strings.Contains(a.String(), `"version"`) {
		t.Error("envelope missing version field")
	}
}

// smallModelJSON is a hand-sized accepted model — two templates, one
// chain, one location profile — for FuzzLoadModel's corpus: Go's input
// minimisation re-runs the target per removed byte, so a trained model's
// 10+ KB blob spends most of a short fuzz run there.
const smallModelJSON = `{"version":1,
"helo":{"threshold":0.6,"templates":[
 {"ID":0,"Tokens":["link","error","on","port","d+"],"Support":9,"MaxSeverity":4},
 {"ID":1,"Tokens":["node","card","failed","*"],"Support":4,"MaxSeverity":5}]},
"model":{"Mode":0,"Step":10000000000,"TrainStart":"2006-07-01T00:00:00Z","TrainEnd":"2006-07-01T06:00:00Z",
 "Chains":[{"Items":[{"Event":0,"Delay":0},{"Event":1,"Delay":7}],"Support":3,"Confidence":0.75,"PValue":0.001,"Predictive":true,"MaxSeverity":5}],
 "Profiles":{"0":{"Event":0,"Class":1,"Period":3,"Level":0,"Spread":0,"Baseline":[0,1,0]},"1":{"Event":1,"Class":0,"Period":0,"Level":0,"Spread":0.5,"Baseline":null}},
 "Thresholds":{"0":0.5,"1":2.25},"Severity":{"0":4,"1":5}},
"locations":{"0@0|1@7":{"ChainKey":"0@0|1@7","Occurrences":3,"ScopeCounts":{"4":3},"MeanAffected":2,"TriggerIncluded":3}}}`

// smallModelWithThreshold is smallModelJSON with another HELO merge
// threshold.
func smallModelWithThreshold(t testing.TB, v string) string {
	t.Helper()
	blob := strings.Replace(smallModelJSON, `"threshold":0.6`, `"threshold":`+v, 1)
	if blob == smallModelJSON {
		t.Fatal("could not forge the threshold; envelope layout changed?")
	}
	return blob
}

// FuzzLoadModel: a model file is bytes this process did not necessarily
// write. Arbitrary input must come back as an error, never a panic, and
// whatever LoadModel accepts must be a fixed point of Save → LoadModel →
// Save, so a monitor restarted from its own saved model loads the same
// model.
func FuzzLoadModel(f *testing.F) {
	if _, err := LoadModel(strings.NewReader(smallModelJSON)); err != nil {
		f.Fatalf("the seed model no longer loads: %v", err)
	}
	f.Add([]byte(smallModelJSON))
	f.Add([]byte(`{"version":1,"model":{}}`))
	f.Add([]byte(`{"version":1,"helo":{"templates":[null]},"model":{"Profiles":{},"Thresholds":{},"Severity":{}}}`))
	f.Add([]byte(smallModelWithThreshold(f, "2")))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		back, err := LoadModel(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved model does not load: %v\n%s", err, first.Bytes())
		}
		if err := back.Save(&second); err != nil {
			t.Fatalf("reloaded model does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save → LoadModel → Save is not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
