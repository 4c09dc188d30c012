package predict

import (
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/gradual"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/sig"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// emptyModel returns a model with no chains at all.
func emptyModel() *correlate.Model {
	return &correlate.Model{
		Mode:       correlate.Hybrid,
		Step:       10 * time.Second,
		Profiles:   map[int]sig.Profile{},
		Thresholds: map[int]float64{},
		Severity:   map[int]logs.Severity{},
	}
}

func TestEngineEmptyModel(t *testing.T) {
	e := NewEngine(emptyModel(), nil, DefaultConfig())
	recs := []logs.Record{{Time: t0.Add(time.Second), EventID: 0, Location: topology.System}}
	res := run(e, recs, t0, t0.Add(time.Minute))
	if len(res.Predictions) != 0 {
		t.Error("empty model emitted predictions")
	}
	if res.Stats.Messages != 1 {
		t.Errorf("Messages = %d", res.Stats.Messages)
	}
	if res.Stats.ChainsLoaded != 0 {
		t.Errorf("ChainsLoaded = %d", res.Stats.ChainsLoaded)
	}
}

func TestEngineUnknownEventIDs(t *testing.T) {
	// Events never seen in training (ids beyond any profile) take the
	// sparse path and must not crash or pollute chains.
	model := emptyModel()
	e := NewEngine(model, nil, DefaultConfig())
	var recs []logs.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, logs.Record{
			Time:     t0.Add(time.Duration(i) * time.Second),
			EventID:  1000 + i,
			Location: topology.System,
		})
	}
	res := run(e, recs, t0, t0.Add(time.Hour))
	if len(res.Predictions) != 0 {
		t.Error("unknown events emitted predictions")
	}
}

func TestEngineIgnoresUnstampedRecords(t *testing.T) {
	model := emptyModel()
	e := NewEngine(model, nil, DefaultConfig())
	recs := []logs.Record{{Time: t0.Add(time.Second), EventID: -1, Location: topology.System}}
	res := run(e, recs, t0, t0.Add(time.Minute))
	if res.Stats.Messages != 0 {
		t.Errorf("unstamped record counted: %d", res.Stats.Messages)
	}
}

func TestEngineMissingLocationProfileDefaultsToNode(t *testing.T) {
	model := &correlate.Model{
		Mode: correlate.Hybrid,
		Step: 10 * time.Second,
		Chains: []correlate.Chain{{
			Itemset: gradual.Itemset{Items: []gradual.Item{
				{Event: 1, Delay: 0}, {Event: 2, Delay: 5},
			}},
			Predictive:  true,
			MaxSeverity: logs.Failure,
		}},
		Profiles:   map[int]sig.Profile{1: {Class: sig.Silent}, 2: {Class: sig.Silent}},
		Thresholds: map[int]float64{1: 0.5, 2: 0.5},
		Severity:   map[int]logs.Severity{1: logs.Warning, 2: logs.Failure},
	}
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	// Location prediction enabled but the profiles map lacks this chain:
	// the prediction must fall back to node scope.
	e := NewEngine(model, map[string]*location.Profile{}, DefaultConfig())
	recs := []logs.Record{
		{Time: t0.Add(time.Second), EventID: 1, Location: node},
	}
	res := run(e, recs, t0, t0.Add(10*time.Minute))
	if len(res.Predictions) != 1 {
		t.Fatalf("predictions = %d", len(res.Predictions))
	}
	if res.Predictions[0].Scope != topology.ScopeNode {
		t.Errorf("scope = %v, want node fallback", res.Predictions[0].Scope)
	}
}
