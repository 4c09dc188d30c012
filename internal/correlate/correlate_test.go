package correlate

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/sig"
)

var t0 = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

// trainModel generates a BG/L-style log and trains a model in the given
// mode. Shared across tests; cached by seed+duration+mode.
func trainModel(t *testing.T, mode Mode, days int, seed int64) (*Model, []logs.Record) {
	t.Helper()
	dur := time.Duration(days) * 24 * time.Hour
	res := gen.New(gen.BlueGeneL(), seed).Generate(t0, dur)
	org := helo.New(0)
	org.Assign(res.Records)
	m := Train(res.Records, t0, t0.Add(dur), mode, DefaultConfig())
	return m, res.Records
}

func TestModeString(t *testing.T) {
	if Hybrid.String() != "hybrid" || SignalOnly.String() != "signal" || DataMiningOnly.String() != "datamining" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "invalid" {
		t.Error("invalid mode name wrong")
	}
}

func TestHybridFindsCascadeChains(t *testing.T) {
	m, _ := trainModel(t, Hybrid, 6, 101)
	if len(m.Chains) == 0 {
		t.Fatal("no chains extracted")
	}
	// At least one multi-event chain must exist (the cascades have 3-4
	// events).
	maxSize := 0
	for _, c := range m.Chains {
		if c.Size() > maxSize {
			maxSize = c.Size()
		}
	}
	if maxSize < 3 {
		t.Errorf("longest chain = %d events, want >= 3", maxSize)
	}
}

func TestHybridMarksInformationalChains(t *testing.T) {
	m, _ := trainModel(t, Hybrid, 6, 102)
	nonPred := 0
	pred := 0
	for _, c := range m.Chains {
		if c.Predictive {
			pred++
		} else {
			nonPred++
			if c.MaxSeverity > logs.Info {
				t.Errorf("non-predictive chain has severity %v", c.MaxSeverity)
			}
		}
	}
	if pred == 0 {
		t.Error("no predictive chains")
	}
	if nonPred == 0 {
		t.Error("no informational chains (restart/multiline should correlate)")
	}
	if got := len(m.PredictiveChains()); got != pred {
		t.Errorf("PredictiveChains = %d, want %d", got, pred)
	}
}

func TestSignalOnlyProducesMorePairChains(t *testing.T) {
	hybrid, _ := trainModel(t, Hybrid, 6, 103)
	signal, _ := trainModel(t, SignalOnly, 6, 103)
	if len(signal.Chains) == 0 {
		t.Fatal("signal-only extracted nothing")
	}
	for _, c := range signal.Chains {
		if c.Size() != 2 {
			t.Fatalf("signal-only chain of size %d", c.Size())
		}
	}
	if len(signal.Chains) <= len(hybrid.Chains) {
		t.Errorf("signal-only chains (%d) should outnumber hybrid chains (%d)",
			len(signal.Chains), len(hybrid.Chains))
	}
}

func TestDataMiningOnlyLimitations(t *testing.T) {
	signal, _ := trainModel(t, SignalOnly, 6, 104)
	dm, _ := trainModel(t, DataMiningOnly, 6, 104)
	if len(dm.Chains) >= len(signal.Chains) {
		t.Errorf("data-mining chains (%d) should be fewer than signal-only (%d)",
			len(dm.Chains), len(signal.Chains))
	}
	// The fixed 60 s correlation window bounds every adjacent gap, so the
	// hour-scale node-card cascade cannot appear as a direct correlation:
	// no dm chain may contain a gap beyond the window (plus matching
	// tolerance).
	for _, c := range dm.Chains {
		for i := 1; i < len(c.Items); i++ {
			gap := c.Items[i].Delay - c.Items[i-1].Delay
			if gap > 6+2 {
				t.Errorf("dm chain %s has gap of %d samples, beyond the fixed window", c.Key(), gap)
			}
		}
	}
}

func TestProfilesCoverEventTypes(t *testing.T) {
	m, recs := trainModel(t, Hybrid, 4, 105)
	ids := map[int]bool{}
	for _, r := range recs {
		ids[r.EventID] = true
	}
	for id := range ids {
		if _, ok := m.Profiles[id]; !ok {
			t.Errorf("event %d missing profile", id)
		}
		if th, ok := m.Thresholds[id]; !ok || th <= 0 {
			t.Errorf("event %d missing threshold", id)
		}
	}
}

func TestSilentMajority(t *testing.T) {
	// The paper observes silent signals are the majority of event types.
	m, _ := trainModel(t, Hybrid, 4, 106)
	counts := map[sig.Class]int{}
	for _, p := range m.Profiles {
		counts[p.Class]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if counts[sig.Silent]*2 < total {
		t.Errorf("silent signals are not the majority: %v", counts)
	}
}

func TestTrainDeterministic(t *testing.T) {
	a, _ := trainModel(t, Hybrid, 4, 107)
	b, _ := trainModel(t, Hybrid, 4, 107)
	if len(a.Chains) != len(b.Chains) {
		t.Fatalf("chain counts differ: %d vs %d", len(a.Chains), len(b.Chains))
	}
	for i := range a.Chains {
		if a.Chains[i].Key() != b.Chains[i].Key() {
			t.Fatalf("chain %d differs: %s vs %s", i, a.Chains[i].Key(), b.Chains[i].Key())
		}
	}
}

func TestTrainEmptyLog(t *testing.T) {
	m := Train(nil, t0, t0.Add(time.Hour), Hybrid, DefaultConfig())
	if len(m.Chains) != 0 || len(m.Profiles) != 0 {
		t.Error("empty log should train an empty model")
	}
}

func TestChainSeverityMetadata(t *testing.T) {
	m, _ := trainModel(t, Hybrid, 6, 108)
	for _, c := range m.Chains {
		want := logs.Info
		for _, it := range c.Items {
			if sev := m.Severity[it.Event]; sev > want {
				want = sev
			}
		}
		if c.MaxSeverity != want {
			t.Errorf("chain %s severity %v, want %v", c.Key(), c.MaxSeverity, want)
		}
	}
}

// TestTrainIdenticalAcrossGOMAXPROCS: characterisation, pair scoring and
// mining all fan out over par.Each, sized by GOMAXPROCS; the trained
// model's bytes must not depend on it, in any mode.
func TestTrainIdenticalAcrossGOMAXPROCS(t *testing.T) {
	dur := 2 * 24 * time.Hour
	res := gen.New(gen.BlueGeneL(), 109).Generate(t0, dur)
	helo.New(0).Assign(res.Records)
	for _, mode := range []Mode{Hybrid, SignalOnly, DataMiningOnly} {
		var blobs [][]byte
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			blob, err := json.Marshal(Train(res.Records, t0, t0.Add(dur), mode, DefaultConfig()))
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
		if !bytes.Equal(blobs[0], blobs[1]) {
			t.Fatalf("%v: model bytes differ between GOMAXPROCS 1 and 4", mode)
		}
		var m Model
		if err := json.Unmarshal(blobs[0], &m); err != nil || len(m.Chains) == 0 {
			t.Fatalf("%v: trained no chains (err %v): the comparison proves nothing", mode, err)
		}
	}
}
