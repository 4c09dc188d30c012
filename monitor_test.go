package elsa

import (
	"testing"
	"time"
)

// feedOK feeds one record, failing the test on an unexpected error —
// the streaming tests never feed a closed monitor.
func feedOK(t testing.TB, mon *Monitor, r Record) []Prediction {
	t.Helper()
	preds, err := mon.Feed(r)
	if err != nil {
		t.Fatalf("Feed: %v", err)
	}
	return preds
}

func TestMonitorMatchesBatchPredict(t *testing.T) {
	log := GenerateBGL(80, apiStart, 6*24*time.Hour)
	cut := apiStart.Add(3 * 24 * time.Hour)
	train, test, _ := log.Split(cut)
	model := Train(train, apiStart, cut, DefaultTrainConfig())

	batch := model.Predict(test, cut, log.End)

	// A fresh equal model for the monitor (Predict mutates organizer
	// state by learning online; train it identically).
	model2 := Train(train, apiStart, cut, DefaultTrainConfig())
	mon := model2.NewMonitor(cut)
	var streamed []Prediction
	for _, r := range test {
		streamed = append(streamed, feedOK(t, mon, r)...)
	}
	streamed = append(streamed, mon.AdvanceTo(log.End)...)
	mon.Close()

	if len(streamed) != len(batch.Predictions) {
		t.Fatalf("monitor %d predictions vs batch %d", len(streamed), len(batch.Predictions))
	}
	for i := range streamed {
		if streamed[i] != batch.Predictions[i] {
			t.Fatalf("prediction %d differs", i)
		}
	}
}

func TestMonitorLearnsNewTemplates(t *testing.T) {
	log := GenerateBGL(81, apiStart, 2*24*time.Hour)
	model := Train(log.Records, apiStart, log.End, DefaultTrainConfig())
	before := model.EventCount()
	mon := model.NewMonitor(log.End)
	mon.Feed(Record{
		Time:     log.End.Add(time.Second),
		Severity: Severe,
		Message:  "previously unseen subsystem failure mode alpha",
		EventID:  -1,
	})
	if model.EventCount() != before+1 {
		t.Errorf("EventCount = %d, want %d", model.EventCount(), before+1)
	}
	if res := mon.Close(); res.Stats.Messages != 1 {
		t.Errorf("Messages = %d", res.Stats.Messages)
	}
}
