package evaluate

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/pipeline"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/topology"
)

var t0 = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

func mkPred(issued time.Time, lead time.Duration, trigger string, scope topology.Scope) predict.Prediction {
	return predict.Prediction{
		TriggeredAt: issued.Add(-time.Millisecond),
		IssuedAt:    issued,
		ExpectedAt:  issued.Add(lead),
		Lead:        lead,
		Trigger:     topology.MustParse(trigger),
		Scope:       scope,
		ChainKey:    "1@0|2@6",
		ChainSize:   2,
	}
}

func mkFail(at time.Time, category string, locs ...string) gen.FailureRecord {
	f := gen.FailureRecord{Time: at, Archetype: category, Category: category}
	for _, l := range locs {
		f.Locations = append(f.Locations, topology.MustParse(l))
	}
	return f
}

func resultWith(preds ...predict.Prediction) *predict.Result {
	r := &predict.Result{Predictions: preds}
	r.Stats.ChainsLoaded = 5
	r.Stats.ChainsUsed = map[string]int{"1@0|2@6": len(preds)}
	return r
}

func TestScorePerfectPrediction(t *testing.T) {
	pred := mkPred(t0, time.Minute, "R00-M0-N0-C:J02-U01", topology.ScopeNode)
	fail := mkFail(t0.Add(time.Minute), "memory", "R00-M0-N0-C:J02-U01")
	out := Score(resultWith(pred), []gen.FailureRecord{fail}, DefaultMatchConfig())
	if out.Precision != 1 || out.Recall != 1 {
		t.Errorf("precision=%v recall=%v, want 1/1", out.Precision, out.Recall)
	}
	if out.TruePositives != 1 || out.FalsePositives != 0 {
		t.Errorf("TP=%d FP=%d", out.TruePositives, out.FalsePositives)
	}
}

func TestScoreWrongLocationIsFalsePositive(t *testing.T) {
	pred := mkPred(t0, time.Minute, "R00-M0-N0-C:J02-U01", topology.ScopeNode)
	fail := mkFail(t0.Add(time.Minute), "memory", "R63-M1-N9-C:J02-U01")
	out := Score(resultWith(pred), []gen.FailureRecord{fail}, DefaultMatchConfig())
	if out.Precision != 0 {
		t.Errorf("precision = %v, want 0", out.Precision)
	}
	if out.Recall != 0 {
		t.Errorf("recall = %v, want 0 (failure unmatched)", out.Recall)
	}
}

func TestScoreLocationBlindMatches(t *testing.T) {
	pred := mkPred(t0, time.Minute, "R00-M0-N0-C:J02-U01", topology.ScopeNode)
	fail := mkFail(t0.Add(time.Minute), "memory", "R63-M1-N9-C:J02-U01")
	cfg := DefaultMatchConfig()
	cfg.RequireLocation = false
	out := Score(resultWith(pred), []gen.FailureRecord{fail}, cfg)
	if out.Precision != 1 || out.Recall != 1 {
		t.Errorf("location-blind precision=%v recall=%v", out.Precision, out.Recall)
	}
}

func TestScopeWidensMatch(t *testing.T) {
	// Trigger on one node, failure on a different node of the same
	// midplane: matches only with midplane scope.
	pred := mkPred(t0, time.Minute, "R05-M1-N0-C:J00-U00", topology.ScopeMidplane)
	fail := mkFail(t0.Add(time.Minute), "memory", "R05-M1-N7-C:J03-U01")
	out := Score(resultWith(pred), []gen.FailureRecord{fail}, DefaultMatchConfig())
	if out.TruePositives != 1 {
		t.Error("midplane-scope prediction should match midplane failure")
	}
	narrow := mkPred(t0, time.Minute, "R05-M1-N0-C:J00-U00", topology.ScopeNode)
	out = Score(resultWith(narrow), []gen.FailureRecord{fail}, DefaultMatchConfig())
	if out.TruePositives != 0 {
		t.Error("node-scope prediction should not match another node")
	}
}

func TestLatePredictionsDropped(t *testing.T) {
	late := mkPred(t0, -time.Second, "R00-M0-N0-C:J02-U01", topology.ScopeNode)
	fail := mkFail(t0, "io", "R00-M0-N0-C:J02-U01")
	out := Score(resultWith(late), []gen.FailureRecord{fail}, DefaultMatchConfig())
	if out.LateDropped != 1 || out.Predictions != 0 {
		t.Errorf("late=%d usable=%d", out.LateDropped, out.Predictions)
	}
	if out.Recall != 0 {
		t.Error("late prediction must not earn recall")
	}
}

func TestScoreOutsideWindowIsMiss(t *testing.T) {
	pred := mkPred(t0, time.Minute, "R00-M0-N0-C:J02-U01", topology.ScopeNode)
	// Failure an hour later: far outside expected+slack.
	fail := mkFail(t0.Add(time.Hour), "memory", "R00-M0-N0-C:J02-U01")
	out := Score(resultWith(pred), []gen.FailureRecord{fail}, DefaultMatchConfig())
	if out.TruePositives != 0 {
		t.Error("failure outside window matched")
	}
}

func TestCategoryBreakdown(t *testing.T) {
	preds := []predict.Prediction{
		mkPred(t0, time.Minute, "R00-M0-N0-C:J02-U01", topology.ScopeNode),
	}
	fails := []gen.FailureRecord{
		mkFail(t0.Add(time.Minute), "memory", "R00-M0-N0-C:J02-U01"),
		mkFail(t0.Add(2*time.Hour), "network", "R63-M1-N9-C:J02-U01"),
		mkFail(t0.Add(3*time.Hour), "network", "R62-M1-N9-C:J02-U01"),
	}
	out := Score(resultWith(preds...), fails, DefaultMatchConfig())
	mem := out.ByCategory["memory"]
	net := out.ByCategory["network"]
	if mem.Total != 1 || mem.Predicted != 1 {
		t.Errorf("memory stats = %+v", mem)
	}
	if net.Total != 2 || net.Predicted != 0 {
		t.Errorf("network stats = %+v", net)
	}
	if mem.Recall() != 1 || net.Recall() != 0 {
		t.Error("category recalls wrong")
	}
	if got := net.Share; got < 0.66 || got > 0.67 {
		t.Errorf("network share = %v", got)
	}
	if !strings.Contains(out.String(), "network") {
		t.Error("String() missing category lines")
	}
}

func TestWindowsStats(t *testing.T) {
	preds := []predict.Prediction{
		mkPred(t0, 5*time.Second, "R00-M0-N0-C:J02-U01", topology.ScopeNode),
		mkPred(t0.Add(time.Hour), 30*time.Second, "R00-M0-N1-C:J02-U01", topology.ScopeNode),
		mkPred(t0.Add(2*time.Hour), 5*time.Minute, "R00-M0-N2-C:J02-U01", topology.ScopeNode),
		mkPred(t0.Add(3*time.Hour), 20*time.Minute, "R00-M0-N3-C:J02-U01", topology.ScopeNode),
	}
	var fails []gen.FailureRecord
	for _, p := range preds {
		fails = append(fails, mkFail(p.ExpectedAt, "memory", p.Trigger.String()))
	}
	out := Score(resultWith(preds...), fails, DefaultMatchConfig())
	w := out.Windows()
	if w.Over10s != 0.75 {
		t.Errorf("Over10s = %v, want 0.75", w.Over10s)
	}
	if w.Over1min != 0.5 {
		t.Errorf("Over1min = %v, want 0.5", w.Over1min)
	}
	if w.Over10min != 0.25 {
		t.Errorf("Over10min = %v, want 0.25", w.Over10min)
	}
}

func TestSeqUsedFraction(t *testing.T) {
	r := resultWith()
	out := Score(r, nil, DefaultMatchConfig())
	if got := out.SeqUsedFraction(); got != 0.2 {
		t.Errorf("SeqUsedFraction = %v, want 1/5", got)
	}
}

func TestEmptyEverything(t *testing.T) {
	out := Score(&predict.Result{Stats: predict.Stats{ChainsUsed: map[string]int{}}}, nil, DefaultMatchConfig())
	if out.Precision != 0 || out.Recall != 0 {
		t.Error("empty score should be zeros")
	}
	if out.SeqUsedFraction() != 0 {
		t.Error("empty SeqUsedFraction should be 0")
	}
	if (out.Windows() != WindowStats{}) {
		t.Error("empty windows should be zero")
	}
}

func TestAdaptiveWindowMatching(t *testing.T) {
	// A prediction with tight learned bounds: a failure inside them
	// matches, a failure past ExpectedLatest+Slack does not — even though
	// the static span-proportional slack would have accepted it.
	pred := mkPred(t0, 30*time.Minute, "R00-M0-N0-C:J02-U01", topology.ScopeNode)
	pred.ExpectedEarliest = pred.ExpectedAt.Add(-time.Minute)
	pred.ExpectedLatest = pred.ExpectedAt.Add(time.Minute)

	cfg := DefaultMatchConfig()
	cfg.AdaptiveWindows = true
	cfg.Slack = 30 * time.Second

	inside := mkFail(pred.ExpectedAt.Add(50*time.Second), "memory", "R00-M0-N0-C:J02-U01")
	out := Score(resultWith(pred), []gen.FailureRecord{inside}, cfg)
	if out.TruePositives != 1 {
		t.Error("failure inside adaptive bounds should match")
	}

	// 8 minutes past the forecast: inside the static 0.35*lead slack
	// (10.5 min) but outside the adaptive bounds.
	outside := mkFail(pred.ExpectedAt.Add(8*time.Minute), "memory", "R00-M0-N0-C:J02-U01")
	out = Score(resultWith(pred), []gen.FailureRecord{outside}, cfg)
	if out.TruePositives != 0 {
		t.Error("failure outside adaptive bounds matched")
	}
	cfg.AdaptiveWindows = false
	cfg.Slack = 3 * time.Minute
	out = Score(resultWith(pred), []gen.FailureRecord{outside}, cfg)
	if out.TruePositives != 1 {
		t.Error("static slack should have accepted the late failure (control)")
	}
}

// TestTableIIIShape is the headline integration test: the three methods'
// precision/recall must reproduce the ordering of the paper's Table III —
// hybrid and data-mining precision comparable and high, signal-only a bit
// lower; hybrid recall highest, signal-only close, data-mining far behind.
func TestTableIIIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	total := 16 * 24 * time.Hour
	cut := t0.Add(5 * 24 * time.Hour)
	res := gen.New(gen.BlueGeneL(), 999).Generate(t0, total)
	org := helo.New(0)
	org.Assign(res.Records)
	train, test, testFailures := res.Split(cut)

	outcomes := map[correlate.Mode]*Outcome{}
	for _, mode := range []correlate.Mode{correlate.Hybrid, correlate.SignalOnly, correlate.DataMiningOnly} {
		model := correlate.Train(train, t0, cut, mode, correlate.DefaultConfig())
		profiles := location.Extract(train, model.Chains, t0, model.Step, 1)
		engine := predict.NewEngine(model, profiles, predict.DefaultConfig())
		result, err := pipeline.New(engine, nil, pipeline.DefaultConfig()).
			Run(context.Background(), logs.NewSliceSource(test), cut, res.End)
		if err != nil {
			t.Fatalf("%s: replay: %v", mode, err)
		}
		outcomes[mode] = Score(result, testFailures, DefaultMatchConfig())
		t.Logf("%s: %s", mode, outcomes[mode])
	}

	hy, sg, dm := outcomes[correlate.Hybrid], outcomes[correlate.SignalOnly], outcomes[correlate.DataMiningOnly]
	if hy.Recall < 0.25 {
		t.Errorf("hybrid recall = %v, want >= 0.25", hy.Recall)
	}
	if hy.Precision < 0.6 {
		t.Errorf("hybrid precision = %v, want >= 0.6", hy.Precision)
	}
	if dm.Recall >= hy.Recall {
		t.Errorf("data-mining recall %v should be far below hybrid %v", dm.Recall, hy.Recall)
	}
	// Table III's shape, asserted through its seed-robust invariants:
	// the hybrid matches signal-only's recall with a fraction of the
	// sequences and predictions, never clearly loses precision to it,
	// and the data-mining baseline keeps precision while losing a large
	// share of the recall.
	if hy.Recall < sg.Recall-0.02 {
		t.Errorf("hybrid recall %v should be >= signal-only %v (within slack)", hy.Recall, sg.Recall)
	}
	if hy.Precision < sg.Precision-0.02 {
		t.Errorf("hybrid precision %v clearly below signal-only %v", hy.Precision, sg.Precision)
	}
	if dm.Precision < hy.Precision-0.02 {
		t.Errorf("dm precision %v should stay at hybrid level %v", dm.Precision, hy.Precision)
	}
	if sg.ChainsLoaded <= 2*hy.ChainsLoaded {
		t.Errorf("signal-only sequences (%d) should dwarf hybrid's (%d)", sg.ChainsLoaded, hy.ChainsLoaded)
	}
	if sg.Predictions <= 2*hy.Predictions {
		t.Errorf("signal-only predictions (%d) should dwarf hybrid's (%d) for the same coverage",
			sg.Predictions, hy.Predictions)
	}
}
