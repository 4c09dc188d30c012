package elsa

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/topology"
)

const day = 24 * time.Hour

// driftRefreshEvery is the refresh cadence of the drift scenarios, in
// stream time. It is sub-daily on purpose: remineEvery = 16 bounds how
// long a structural change waits for the full miner at 16 rounds, so a
// daily cadence admits nothing inside an 8-day scenario (measured: 8
// rounds, remined=false throughout). At 2 h a new chain is at most 32 h
// away.
const driftRefreshEvery = 2 * time.Hour

// reconfigured returns the BG/L profile after a mid-life reconfiguration:
// the node-card fault archetype is gone and a disk-fault cascade the
// machine never showed before has appeared.
func reconfigured() MachineProfile {
	p := BlueGeneLProfile()
	var kept []gen.FaultArchetype
	for _, ar := range p.Archetypes {
		if ar.Name != "nodecard" {
			kept = append(kept, ar)
		}
	}
	p.Archetypes = append(kept, gen.FaultArchetype{
		Name: "disk", Category: "storage", MTBF: 3 * time.Hour,
		PrecursorProb: 0.9, IsFailure: true, OriginScope: topology.ScopeNode,
		Precursors: []gen.EventSpec{
			{Message: "sas phy error count d+ on enclosure d+", Component: "STORAGE",
				Severity: logs.Warning, Delay: 0},
			{Message: "raid rebuild started on array d+", Component: "STORAGE",
				Severity: logs.Severe, Delay: 40 * time.Second, Jitter: 0.1},
		},
		Final: gen.EventSpec{Message: "raid array d+ failed unrecoverable", Component: "STORAGE",
			Severity: logs.Failure, Delay: 50 * time.Second, Jitter: 0.1},
	})
	return p
}

// hasChainWith reports whether any live chain involves an event whose
// template mentions substr.
func hasChainWith(m *Model, substr string) bool {
	for _, c := range m.Chains() {
		for _, it := range c.Items {
			if strings.Contains(m.EventTemplate(it.Event), substr) {
				return true
			}
		}
	}
	return false
}

// watchRefreshing feeds stream to mon, refreshing every
// driftRefreshEvery of stream time — what elsamon -refresh-every does by
// record count — and calls each after every round.
func watchRefreshing(t *testing.T, mon *Monitor, start time.Time, stream []Record, each func(RefreshStats)) []Prediction {
	t.Helper()
	var preds []Prediction
	next := start.Add(driftRefreshEvery)
	for _, r := range stream {
		for ; !r.Time.Before(next); next = next.Add(driftRefreshEvery) {
			each(mon.Refresh())
		}
		preds = append(preds, feedOK(t, mon, r)...)
	}
	return preds
}

// medianDuration is the median refresh time of the given rounds: one
// round's wall clock is at the scheduler's mercy, five are not.
func medianDuration(rounds []RefreshStats) time.Duration {
	ds := make([]time.Duration, len(rounds))
	for i, st := range rounds {
		ds[i] = st.Duration
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// TestMonitorRefreshFollowsDrift is the correlation-updating scenario: a
// model trained on two days of BG/L watches three more days of the same
// machine, then the machine is reconfigured. Refresh must admit the new
// disk chain, retire the node-card chain once its spikes have slid out
// of the live window, and hold no more history than the window. The
// live window is the training span (17 280 ticks); the accumulator
// trims a quarter-window at a time, so a train may overhang it by that
// much and no more.
//
// Refresh cost is compared inside the reconfigured regime — the last day
// against the day after the window first held nothing else — because the
// reconfiguration itself multiplies the chain set (6-8 chains before,
// 30-70 after) and with it the cost of a round (measured 2.3-3.2x across
// the swap with the window armed): across the swap the ratio reads the
// workload, not the uptime.
func TestMonitorRefreshFollowsDrift(t *testing.T) {
	cut := apiStart.Add(2 * day)
	swap := cut.Add(3 * day)
	end := swap.Add(6 * day)
	before := Generate(BlueGeneLProfile(), 1, apiStart, swap.Sub(apiStart))
	after := Generate(reconfigured(), 2, swap, end.Sub(swap))
	train, live, _ := before.Split(cut)
	model := Train(train, apiStart, cut, DefaultTrainConfig())
	if !hasChainWith(model, "link card power module") || hasChainWith(model, "raid") {
		t.Fatal("fixture: the trained model must know the node-card chain and not the disk chain")
	}
	mon := model.NewMonitor(cut)
	defer mon.Close()
	var rounds []RefreshStats
	longest, admitted, retired := 0, 0, 0
	watchRefreshing(t, mon, cut, append(live, after.Records...), func(st RefreshStats) {
		rounds = append(rounds, st)
		for _, tr := range mon.pipe.Accumulator().Trains() {
			longest = max(longest, tr[len(tr)-1]-tr[0])
		}
		if admitted == 0 && hasChainWith(model, "raid") {
			admitted = len(rounds)
		}
		if hasChainWith(model, "link card power module") {
			retired = 0
		} else if retired == 0 {
			retired = len(rounds)
		}
	})
	perDay := int(day / driftRefreshEvery)
	turned := int(swap.Add(2*day).Sub(cut) / driftRefreshEvery) // the window holds only the reconfigured machine
	settled, last := medianDuration(rounds[turned:turned+perDay]), medianDuration(rounds[len(rounds)-perDay:])
	t.Logf("%d rounds: disk chain admitted at round %d, node-card chain retired at round %d; refresh %s the day after the window turned over, %s on the last day; longest train %d ticks",
		len(rounds), admitted, retired, settled, last, longest)

	if !hasChainWith(model, "raid") {
		t.Error("disk chain not admitted")
	}
	if hasChainWith(model, "link card power module") {
		t.Error("node-card chain still live six days after its archetype vanished")
	}
	if limit := model.window + model.window/4 + 1; longest > limit {
		t.Errorf("a spike train spans %d ticks, live window is %d (+ a quarter between trims)", longest, model.window)
	}
	if last > 3*settled {
		t.Errorf("refresh cost grows with uptime: %s on the last day, %s the day after the window turned over", last, settled)
	}
}

// TestMonitorRefreshStableSystemKeepsPredicting: on a machine that does
// not change, six days of refreshing over a two-day window neither
// starve the chain set nor silence the monitor.
func TestMonitorRefreshStableSystemKeepsPredicting(t *testing.T) {
	cut := apiStart.Add(2 * day)
	log := GenerateBGL(70, apiStart, 8*day)
	train, live, _ := log.Split(cut)
	model := Train(train, apiStart, cut, DefaultTrainConfig())
	mon := model.NewMonitor(cut)
	defer mon.Close()
	rounds := 0
	preds := watchRefreshing(t, mon, cut, live, func(RefreshStats) { rounds++ })
	if rounds < 5*int(day/driftRefreshEvery) {
		t.Fatalf("only %d refresh rounds ran", rounds)
	}
	if len(model.Chains()) == 0 {
		t.Error("refreshing lost every chain on a stable system")
	}
	late := 0
	for _, p := range preds {
		if !p.TriggeredAt.Before(log.End.Add(-2 * day)) {
			late++
		}
	}
	if late == 0 {
		t.Errorf("no prediction in the last two days (%d before them)", len(preds))
	}
}
