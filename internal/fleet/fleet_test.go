package fleet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/chaos"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/resilience"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// feedOK feeds the reference monitor one record, failing the test on an
// unexpected error — reference runs never feed a closed monitor.
func feedOK(t *testing.T, mon *elsa.Monitor, r logs.Record) []elsa.Prediction {
	t.Helper()
	preds, err := mon.Feed(r)
	if err != nil {
		t.Fatalf("Feed: %v", err)
	}
	return preds
}

// Shared fixture: one trained model (as a saved blob, so every test and
// every fleet loads a private copy) and the test-window stream.
var (
	fixOnce  sync.Once
	fixBlob  []byte
	fixTest  []logs.Record
	fixStart time.Time
	fixEnd   time.Time
)

func fixture(t testing.TB) (*elsa.Model, []logs.Record, time.Time, time.Time) {
	t.Helper()
	fixOnce.Do(func() {
		start := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
		log := elsa.GenerateBGL(85, start, 4*24*time.Hour)
		cut := start.Add(2 * 24 * time.Hour)
		train, test, _ := log.Split(cut)
		model := elsa.Train(train, start, cut, elsa.DefaultTrainConfig())
		var blob bytes.Buffer
		if err := model.Save(&blob); err != nil {
			panic(err)
		}
		// Half the test window keeps the suite fast (it still carries
		// dozens of predictions) — every test replays the full stream
		// several times, some under the race detector.
		test = test[:len(test)/2]
		fixBlob = blob.Bytes()
		fixTest = test
		fixStart = cut
		fixEnd = test[len(test)-1].Time.Add(time.Hour)
	})
	model, err := elsa.LoadModel(bytes.NewReader(fixBlob))
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	return model, fixTest, fixStart, fixEnd
}

// testConfig is a fleet config tuned for tests: no real sleeping in the
// recovery loop, a snapshot cadence small enough to exercise trims, and
// a failure budget kills alone will not trip.
func testConfig(shards int) Config {
	return Config{
		Shards:        shards,
		Scope:         topology.ScopeRack,
		SnapshotEvery: 500,
		FeedTimeout:   2 * time.Second,
		Handoff:       HandoffPolicy{Seed: 7, Sleep: func(time.Duration) {}},
		Supervision:   resilience.Policy{MaxFailures: 1000},
	}
}

// runFleet drives a fleet over recs, invoking fault (if non-nil) before
// each record, and returns the full merged stream (Close tail included)
// and the final stats.
func runFleet(t *testing.T, cfg Config, recs []logs.Record, end time.Time,
	fault func(i int, c *Coordinator)) ([]Merged, Stats) {
	t.Helper()
	model, _, start, _ := fixture(t)
	c, err := New(model, start, cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	var merged []Merged
	for i, r := range recs {
		if fault != nil {
			fault(i, c)
		}
		merged = append(merged, c.Feed(r)...)
	}
	merged = append(merged, c.AdvanceTo(end)...)
	res := c.Close()
	merged = append(merged, res.Tail...)
	return merged, res.Stats
}

// cleanRuns caches the fault-free reference run per shard count: several
// tests compare a faulted run against the same clean baseline.
var (
	cleanMu   sync.Mutex
	cleanRuns = map[int][]Merged{}
)

func cleanRun(t *testing.T, shards int) []Merged {
	t.Helper()
	cleanMu.Lock()
	defer cleanMu.Unlock()
	if m, ok := cleanRuns[shards]; ok {
		return m
	}
	m, stats := runFleet(t, testConfig(shards), fixTest, fixEnd, nil)
	if stats.Predictions == 0 {
		t.Fatal("clean fleet emitted no predictions")
	}
	cleanRuns[shards] = m
	return m
}

// byShard splits a merged stream into per-shard streams and verifies the
// exactly-once contract: within each shard, Seq is gapless from 0.
func byShard(t *testing.T, merged []Merged) map[string][]Merged {
	t.Helper()
	out := make(map[string][]Merged)
	for _, m := range merged {
		if want := int64(len(out[m.Shard])); m.Seq != want {
			t.Fatalf("shard %s: merged seq %d, want %d (duplicate or gap in the stream)",
				m.Shard, m.Seq, want)
		}
		out[m.Shard] = append(out[m.Shard], m)
	}
	return out
}

// sameModuloDegraded asserts two per-shard streams carry identical
// predictions in identical order, ignoring only the Degraded flag, and
// returns how many predictions were flagged in got but not in want.
func sameModuloDegraded(t *testing.T, name string, got, want []Merged) int64 {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("shard %s: %d predictions, clean run has %d", name, len(got), len(want))
	}
	var flagged int64
	for i := range got {
		g, w := got[i].Prediction, want[i].Prediction
		if g.Degraded && !w.Degraded {
			flagged++
		}
		g.Degraded, w.Degraded = false, false
		if g != w {
			t.Fatalf("shard %s: prediction %d differs:\nfaulted %+v\nclean   %+v", name, i, g, w)
		}
	}
	return flagged
}

// TestSingleShardFleetMatchesMonitor proves the N=1 baseline: a
// one-shard fleet is byte-identical to a bare Monitor over the same
// stream — coordinator, journal, and snapshot cadence add nothing.
func TestSingleShardFleetMatchesMonitor(t *testing.T) {
	model, test, start, end := fixture(t)
	ref := model.NewMonitor(start)
	var want []predict.Prediction
	for _, r := range test {
		want = append(want, feedOK(t, ref, r)...)
	}
	want = append(want, ref.AdvanceTo(end)...)
	ref.Close()
	if len(want) == 0 {
		t.Fatal("reference monitor emitted no predictions; fixture too quiet")
	}

	merged, stats := runFleet(t, testConfig(1), test, end, nil)
	if len(merged) != len(want) {
		t.Fatalf("fleet emitted %d predictions, monitor %d", len(merged), len(want))
	}
	for i := range merged {
		if merged[i].Shard != "shard0" || merged[i].Seq != int64(i) {
			t.Fatalf("merged[%d] carries shard=%s seq=%d", i, merged[i].Shard, merged[i].Seq)
		}
		if merged[i].Prediction != want[i] {
			t.Fatalf("prediction %d differs:\nfleet   %+v\nmonitor %+v", i, merged[i].Prediction, want[i])
		}
	}
	if stats.Degraded != 0 || stats.Lost != 0 {
		t.Fatalf("clean run accounting not clean: %+v", stats)
	}
	if stats.Shards[0].Snapshots == 0 {
		t.Fatal("snapshot cadence never fired; the failover path is untested by this stream")
	}
}

// TestSingleShardFailoverStreamEqual is the migration-equality headline
// for the crash path: kill the only shard mid-stream and the merged
// stream must still be byte-identical to the uninterrupted monitor's —
// catch-up predictions regenerated by the journal replay are identical
// in content, merely flagged Degraded.
func TestSingleShardFailoverStreamEqual(t *testing.T) {
	model, test, start, end := fixture(t)
	ref := model.NewMonitor(start)
	var want []predict.Prediction
	for _, r := range test {
		want = append(want, feedOK(t, ref, r)...)
	}
	want = append(want, ref.AdvanceTo(end)...)
	ref.Close()

	kills := map[int]bool{len(test) / 3: true, 2 * len(test) / 3: true}
	merged, stats := runFleet(t, testConfig(1), test, end, func(i int, c *Coordinator) {
		if kills[i] {
			if !c.Kill("shard0") {
				t.Fatalf("kill at %d found no live incarnation", i)
			}
		}
	})
	if len(merged) != len(want) {
		t.Fatalf("faulted stream emitted %d predictions, clean %d", len(merged), len(want))
	}
	for i := range merged {
		g := merged[i].Prediction
		g.Degraded = false
		if g != want[i] {
			t.Fatalf("prediction %d differs after failover:\nfaulted %+v\nclean   %+v", i, g, want[i])
		}
	}
	sh := stats.Shards[0]
	if sh.Failovers != 2 {
		t.Fatalf("failovers = %d, want 2 (stats: %+v)", sh.Failovers, sh)
	}
	if sh.ReplayShort != 0 || stats.Lost != 0 {
		t.Fatalf("accounting violated: replayShort=%d lost=%d", sh.ReplayShort, stats.Lost)
	}
	if sh.Gaps != 2 || sh.GapEntries != 2 {
		t.Fatalf("gap accounting: gaps=%d gapEntries=%d, want 2/2 (one journaled entry per outage)",
			sh.Gaps, sh.GapEntries)
	}
	if sh.Supervisor.Panics != 2 {
		t.Fatalf("supervisor charged %d failures, want 2", sh.Supervisor.Panics)
	}
}

// TestMultiShardFailoverMatchesCleanFleet proves migration equality for
// a real fleet: kill different shards at different points mid-stream;
// each shard's merged stream must match the clean fleet's byte-for-byte
// modulo Degraded flags, with the degraded count exactly accounted.
func TestMultiShardFailoverMatchesCleanFleet(t *testing.T) {
	_, test, _, end := fixture(t)
	cfg := testConfig(3)
	wantByShard := byShard(t, cleanRun(t, 3))

	names := []string{"shard0", "shard1", "shard2"}
	kills := int64(0)
	merged, stats := runFleet(t, cfg, test, end, func(i int, c *Coordinator) {
		if i > 0 && i%(len(test)/5) == 0 {
			if c.Kill(names[(i/(len(test)/5))%3]) {
				kills++
			}
		}
	})
	gotByShard := byShard(t, merged)
	if len(gotByShard) != len(wantByShard) {
		t.Fatalf("faulted run used %d shards, clean %d", len(gotByShard), len(wantByShard))
	}
	var flagged int64
	for name, want := range wantByShard {
		flagged += sameModuloDegraded(t, name, gotByShard[name], want)
	}
	if flagged != stats.Degraded {
		t.Fatalf("degraded accounting: %d predictions flagged, stats say %d", flagged, stats.Degraded)
	}
	var failovers int64
	for _, sh := range stats.Shards {
		failovers += sh.Failovers
		if sh.ReplayShort != 0 {
			t.Fatalf("shard %s: replayShort=%d", sh.Name, sh.ReplayShort)
		}
	}
	if kills == 0 || failovers != kills {
		t.Fatalf("failovers = %d, kills = %d: every kill must cost exactly one failover", failovers, kills)
	}
	if stats.Lost != 0 {
		t.Fatalf("lost entries: %d", stats.Lost)
	}
}

// TestPlannedHandoffByteIdentical proves the rebalance path: a planned
// snapshot-handoff succession drains the worker first, so the merged
// stream is byte-identical with zero Degraded predictions and no gap.
func TestPlannedHandoffByteIdentical(t *testing.T) {
	_, test, _, end := fixture(t)
	cfg := testConfig(3)
	wantByShard := byShard(t, cleanRun(t, 3))

	handoffs := 0
	merged, stats := runFleet(t, cfg, test, end, func(i int, c *Coordinator) {
		if i > 0 && i%(len(test)/4) == 0 {
			name := c.ShardNames()[handoffs%3]
			if err := c.Handoff(name); err != nil {
				t.Fatalf("handoff %d (%s): %v", handoffs, name, err)
			}
			handoffs++
		}
	})
	gotByShard := byShard(t, merged)
	for name, want := range wantByShard {
		sameModuloDegraded(t, name, gotByShard[name], want)
	}
	if stats.Degraded != 0 {
		t.Fatalf("planned handoffs produced %d degraded predictions, want 0", stats.Degraded)
	}
	var hs, gaps int64
	for _, sh := range stats.Shards {
		hs += sh.Handoffs
		gaps += sh.Gaps
	}
	if hs != int64(handoffs) || handoffs == 0 {
		t.Fatalf("handoffs recorded = %d, performed = %d", hs, handoffs)
	}
	if gaps != 0 {
		t.Fatalf("planned handoffs opened %d gaps, want 0", gaps)
	}
}

// TestStallFailoverStreamEqual proves the liveness probe: a shard that
// wedges past FeedTimeout is abandoned and failed over, and the merged
// stream still matches the clean run modulo Degraded.
func TestStallFailoverStreamEqual(t *testing.T) {
	_, test, _, end := fixture(t)
	cfg := testConfig(2)
	cfg.FeedTimeout = 50 * time.Millisecond * raceSlack
	// The clean baseline uses the default FeedTimeout; the prediction
	// stream does not depend on the liveness bound.
	wantByShard := byShard(t, cleanRun(t, 2))

	merged, stats := runFleet(t, cfg, test, end, func(i int, c *Coordinator) {
		if i == len(test)/2 {
			if !c.Stall("shard0") {
				t.Fatal("stall found no live incarnation")
			}
		}
	})
	gotByShard := byShard(t, merged)
	for name, want := range wantByShard {
		sameModuloDegraded(t, name, gotByShard[name], want)
	}
	sh := stats.Shards[0]
	if sh.Failovers == 0 {
		t.Fatalf("stall did not force a failover: %+v", sh)
	}
	if sh.Supervisor.LastPanic == "" {
		t.Fatal("liveness failure not charged to the supervisor")
	}
}

// TestBreakerHoldsShardDownAndAccountsLoss drives a shard into an
// unrecoverable state: restore failures exhaust the failure budget, the
// breaker opens, recovery is denied (degraded mode with the gap
// accruing), and Close accounts the exact loss.
func TestBreakerHoldsShardDownAndAccountsLoss(t *testing.T) {
	_, test, _, end := fixture(t)
	cfg := testConfig(2)
	cfg.Supervision = resilience.Policy{MaxFailures: 3}
	kill := len(test) / 2
	merged, stats := runFleet(t, cfg, test, end, func(i int, c *Coordinator) {
		if i == kill {
			c.FailRestores("shard0", 1_000_000)
			c.Kill("shard0")
		}
	})
	byShard(t, merged) // seq contiguity must hold even for the dead shard's prefix
	var victim ShardStats
	for _, sh := range stats.Shards {
		if sh.Name == "shard0" {
			victim = sh
		}
	}
	if victim.State != "down" {
		t.Fatalf("victim state = %q, want down", victim.State)
	}
	if victim.Supervisor.Health != resilience.Degraded {
		t.Fatalf("breaker state = %v, want Degraded", victim.Supervisor.Health)
	}
	if victim.RecoveryDenied == 0 {
		t.Fatal("open breaker never denied a recovery round")
	}
	if victim.RestoreFailures == 0 || victim.Supervisor.Trips == 0 {
		t.Fatalf("restore failures/trips not accounted: %+v", victim)
	}
	if victim.LostEntries == 0 {
		t.Fatal("unrecoverable shard reports no lost entries")
	}
	if victim.LostEntries != victim.GapEntries {
		t.Fatalf("loss accounting: lost=%d, gap entries=%d — every unserved entry must be counted lost",
			victim.LostEntries, victim.GapEntries)
	}
	// The healthy shard must be untouched.
	for _, sh := range stats.Shards {
		if sh.Name != "shard0" && (sh.Failovers != 0 || sh.LostEntries != 0) {
			t.Fatalf("healthy shard perturbed: %+v", sh)
		}
	}
}

// chaosRun executes the seeded chaos schedule once and returns the
// merged stream, fleet stats and injector stats.
func chaosRun(t *testing.T, seed int64) ([]Merged, Stats, chaos.FleetStats) {
	t.Helper()
	_, test, _, end := fixture(t)
	if len(test) > 20_000 {
		test = test[:20_000]
	}
	cleanTail := len(test) - 2_000 // no faults in the tail: recovery must complete
	cfg := testConfig(3)
	cfg.FeedTimeout = 100 * time.Millisecond * raceSlack
	cfg.SnapshotEvery = 300

	model, _, start, _ := fixture(t)
	c, err := New(model, start, cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	inj := chaos.NewFleet(c, chaos.FleetConfig{
		Seed:        seed,
		Kill:        0.0015,
		Stall:       0.0005,
		RestoreFail: 0.001,
		Rebalance:   0.0005,
	})
	var merged []Merged
	for i, r := range test {
		if i < cleanTail {
			inj.Step()
		}
		merged = append(merged, c.Feed(r)...)
	}
	merged = append(merged, c.AdvanceTo(end)...)
	res := c.Close()
	merged = append(merged, res.Tail...)
	return merged, res.Stats, inj.FleetStats()
}

// checkChaosAccounting asserts that the coordinator accounted every
// injected fault exactly: each kill and each stall cost one failover,
// each accepted rebalance one handoff, and the shard supervisors were
// charged once per crash and once per failed restore — never more
// restore failures than the injector armed.
func checkChaosAccounting(t *testing.T, stats Stats, faults chaos.FleetStats) {
	t.Helper()
	var failovers, handoffs, restoreFails, charged int64
	for _, sh := range stats.Shards {
		failovers += sh.Failovers
		handoffs += sh.Handoffs
		restoreFails += sh.RestoreFailures
		charged += sh.Supervisor.Panics
	}
	if crashes := faults.Kills + faults.Stalls; failovers != crashes {
		t.Fatalf("failovers = %d, injected kills+stalls = %d+%d", failovers, faults.Kills, faults.Stalls)
	}
	if handoffs != faults.Rebalances {
		t.Fatalf("handoffs = %d, accepted rebalances = %d", handoffs, faults.Rebalances)
	}
	if restoreFails > faults.RestoresArmd {
		t.Fatalf("restore failures = %d, only %d armed", restoreFails, faults.RestoresArmd)
	}
	if want := faults.Kills + faults.Stalls + restoreFails; charged != want {
		t.Fatalf("supervisors charged %d failures, want kills+stalls+restore failures = %d", charged, want)
	}
}

// TestChaosFleetSuite is the acceptance chaos run: a seeded mix of shard
// kills, stalls, restore failures and planned rebalances over the
// stream, with a clean tail. No panic, no wedge (the run completes),
// exact accounting, and full recovery by Close.
func TestChaosFleetSuite(t *testing.T) {
	merged, stats, faults := chaosRun(t, 42)
	byShard(t, merged)

	if faults.Kills == 0 || faults.Stalls == 0 || faults.RestoresArmd == 0 || faults.Rebalances == 0 {
		t.Fatalf("chaos schedule too quiet to prove anything: %+v", faults)
	}
	checkChaosAccounting(t, stats, faults)
	if stats.Lost != 0 {
		t.Fatalf("entries lost despite clean tail and force-recovery: %d (stats %+v)", stats.Lost, stats)
	}
	for _, sh := range stats.Shards {
		if sh.ReplayShort != 0 {
			t.Fatalf("shard %s: replay accounting violated (%d)", sh.Name, sh.ReplayShort)
		}
		if sh.State != "closed" {
			// The tail is clean, Close force-recovers, and armed restore
			// failures are bounded below the attempt budget: every shard
			// must end recovered and cleanly flushed. Anything else is a
			// wedge.
			t.Fatalf("shard %s ended %q (lost=%d flushFails=%d): clean-tail recovery failed",
				sh.Name, sh.State, sh.LostEntries, sh.FlushFailures)
		}
		if sh.FlushFailures != 0 {
			t.Fatalf("shard %s failed its close flush", sh.Name)
		}
	}
	if stats.Predictions == 0 {
		t.Fatal("chaos run emitted no predictions")
	}
}

// TestChaosFleetDeterminism re-runs the identical seeded schedule and
// demands an identical merged stream and identical accounting: every
// failover, replay and handoff decision is reproducible.
func TestChaosFleetDeterminism(t *testing.T) {
	m1, s1, f1 := chaosRun(t, 99)
	m2, s2, f2 := chaosRun(t, 99)
	checkChaosAccounting(t, s1, f1)
	if f1 != f2 {
		t.Fatalf("fault schedules diverged:\nrun1 %+v\nrun2 %+v", f1, f2)
	}
	if len(m1) != len(m2) {
		t.Fatalf("merged streams diverged: %d vs %d predictions", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("merged[%d] diverged:\nrun1 %+v\nrun2 %+v", i, m1[i], m2[i])
		}
	}
	if s1.Predictions != s2.Predictions || s1.Degraded != s2.Degraded ||
		s1.Lost != s2.Lost {
		t.Fatalf("stats diverged:\nrun1 %+v\nrun2 %+v", s1, s2)
	}
}
