package fleet

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/resilience"
)

// TestWatchdogExpiryIsExclusive races the worker's answer against the
// watchdog's expiry of a call whose deadline has already passed: every
// call must get exactly one message, and neither racer — nor the
// coordinator's receive — may ever block.
func TestWatchdogExpiryIsExclusive(t *testing.T) {
	const calls = 10_000
	w := &worker{
		in:    make(chan request, 1),
		reply: make(chan response, 1),
		stop:  make(chan struct{}),
	}
	var answered, expired int
	for i := 0; i < calls; i++ {
		// Arm a call the way slot.call does, with a deadline of now.
		due := nanotime()
		w.due.Store(due)
		w.in <- request{kind: reqFeed}
		var wg sync.WaitGroup
		wg.Add(2)
		work := func() {
			defer wg.Done()
			<-w.in
			w.answer(response{})
		}
		watchdog := func() {
			defer wg.Done()
			w.expire(due + 1)
		}
		// Alternate the launch order so either side can win even when
		// the scheduler runs goroutines in a fixed order.
		if i%2 == 0 {
			go work()
			go watchdog()
		} else {
			go watchdog()
			go work()
		}
		done := make(chan struct{})
		//elsa:chanowner done
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("call %d: a racer blocked on reply — two messages for one call", i)
		}
		if n := len(w.reply); n != 1 {
			t.Fatalf("call %d: %d messages queued, want exactly 1", i, n)
		}
		resp := <-w.reply
		switch state := w.due.Load(); {
		case !resp.expired && state != callIdle:
			t.Fatalf("call %d: answered, but the call state is %d", i, state)
		case resp.expired && state != callExpired:
			t.Fatalf("call %d: expired, but the call state is %d", i, state)
		case resp.panicked:
			t.Fatalf("call %d: spurious panicked answer", i)
		}
		if resp.expired {
			expired++
		} else {
			answered++
		}
	}
	if answered == 0 || expired == 0 {
		t.Fatalf("the race was never contested: %d answered, %d expired", answered, expired)
	}
	// An expiry must not touch a call whose deadline is still ahead.
	w.due.Store(nanotime() + int64(time.Hour))
	w.expire(nanotime())
	if n := len(w.reply); n != 0 {
		t.Fatalf("an expiry hit a call %v before its deadline", time.Hour)
	}
}

// TestTightDeadlineNoSpuriousFailover runs the full fixture under a
// 20 ms liveness deadline: a healthy fleet must never be expired, so no
// failover happens and no supervisor is charged a failure.
func TestTightDeadlineNoSpuriousFailover(t *testing.T) {
	_, test, _, end := fixture(t)
	cfg := testConfig(2)
	cfg.FeedTimeout = 20 * time.Millisecond * raceSlack
	_, stats := runFleet(t, cfg, test, end, nil)
	for _, sh := range stats.Shards {
		if sh.Failovers != 0 || sh.Supervisor.Panics != 0 {
			t.Fatalf("shard %s: %d failovers, %d failures charged under a %v deadline (%s)",
				sh.Name, sh.Failovers, sh.Supervisor.Panics, cfg.FeedTimeout, sh.Supervisor.LastPanic)
		}
	}
}

// TestSnapshotDeadlineFitsItsWork: a snapshot call runs under its own
// deadline, not the per-record one. A snapshot that runs past FeedTimeout
// but inside its bound commits and fails nothing over; one stalled past
// its bound is a failed liveness probe, and the shard fails over from the
// snapshot before it.
func TestSnapshotDeadlineFitsItsWork(t *testing.T) {
	model, test, start, _ := fixture(t)
	cfg := testConfig(1)
	cfg.SnapshotEvery = -1
	cfg.FeedTimeout = 20 * time.Millisecond * raceSlack
	c, err := New(model, start, cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	defer c.Close()
	for _, rec := range test[:len(test)/2] {
		c.Feed(rec)
	}
	sl := c.slots[0]

	sl.stallSnap = 2 * cfg.FeedTimeout
	c.takeSnapshot(sl)
	if sl.snapshots != 1 || sl.failovers != 0 || sl.sup.Stats().Panics != 0 {
		t.Fatalf("a snapshot %v long under a %v feed deadline: %d snapshots, %d failovers, %d failures charged",
			sl.stallSnap, cfg.FeedTimeout, sl.snapshots, sl.failovers, sl.sup.Stats().Panics)
	}

	bound := 4 * cfg.FeedTimeout
	sl.stallSnap = 2 * bound
	t0 := time.Now()
	c.takeSnapshot(sl)
	waited := time.Since(t0)
	if sl.snapshots != 1 || sl.failovers != 1 || sl.state != slotActive {
		t.Fatalf("a snapshot stalled past its %v bound: %d snapshots, %d failovers, state %d; want the stall to fail over",
			bound, sl.snapshots, sl.failovers, sl.state)
	}
	if waited < bound {
		t.Fatalf("the stalled snapshot was expired after %v, inside its own %v bound", waited, bound)
	}
	for _, rec := range test[len(test)/2:] {
		c.Feed(rec)
	}
	if res := c.Close(); res.Stats.Shards[0].LostEntries != 0 {
		t.Fatalf("%d entries lost after the failover", res.Stats.Shards[0].LostEntries)
	}
}

// TestJournalShrinksAfterOutage: while a shard is down no snapshot can
// trim its journal, so an outage grows the journal to the outage's
// length. The first snapshot after recovery must release that array —
// the journal's capacity falls back to the snapshot cadence's size — and
// the steady-state snapshots after it keep reusing the array they have.
func TestJournalShrinksAfterOutage(t *testing.T) {
	model, test, start, _ := fixture(t)
	cfg := testConfig(1)
	cfg.Supervision = resilience.Policy{MaxFailures: 1_000_000}
	const outage = 5_000
	if len(test) < 3*cfg.SnapshotEvery+outage+2 {
		t.Fatalf("fixture has %d records, too few for the outage", len(test))
	}
	c, err := New(model, start, cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	sl := c.slots[0]
	next := 0
	feedUntil := func(done func() bool) {
		t.Helper()
		for !done() {
			if next == len(test) {
				t.Fatal("ran out of records")
			}
			c.Feed(test[next])
			next++
		}
	}

	feedUntil(func() bool { return sl.snapshots == 1 })
	// Each delivery to a down shard runs one recovery round of
	// handoffTries restores, so the shard stays down for outage entries.
	c.FailRestores("shard0", handoffTries*outage)
	if !c.Kill("shard0") {
		t.Fatal("kill found no live incarnation")
	}
	feedUntil(func() bool { return sl.state == slotActive })
	bound := 4 * cfg.SnapshotEvery
	if peak := cap(sl.journal); peak <= bound {
		t.Fatalf("outage of %d entries left a journal of capacity %d, want > %d", outage, peak, bound)
	}
	snaps := sl.snapshots
	feedUntil(func() bool { return sl.snapshots > snaps })
	if got := cap(sl.journal); got > bound {
		t.Fatalf("after recovery and a snapshot the journal keeps capacity %d, want <= %d", got, bound)
	}
	feedUntil(func() bool { return sl.snapshots > snaps+2 })
	if got := cap(sl.journal); got < cfg.SnapshotEvery || got > bound {
		t.Fatalf("steady-state journal capacity %d, want the reused interval's array (%d..%d)",
			got, cfg.SnapshotEvery, bound)
	}
	if sl.failovers != 1 {
		t.Fatalf("%d failovers, want 1", sl.failovers)
	}
	if res := c.Close(); res.Stats.Shards[0].LostEntries != 0 {
		t.Fatalf("%d entries lost after the outage", res.Stats.Shards[0].LostEntries)
	}
}

// mallocs counts the heap allocations f makes, on every goroutine.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCoordinatorFeedAddsNoAllocs feeds the same records that close no
// tick to a warmed 2-shard fleet and to a warmed bare monitor: routing,
// journaling and the shard call together must add < 0.1 allocations a
// record.
func TestCoordinatorFeedAddsNoAllocs(t *testing.T) {
	if raceSlack > 1 {
		t.Skip("the race detector allocates on its own")
	}
	model, test, start, _ := fixture(t)
	const warm, n = 5_000, 1_000
	if len(test) < warm {
		t.Fatalf("fixture has %d records, want at least %d", len(test), warm)
	}
	// Every measured record carries the last warm record's time: the
	// stream does not advance, so no tick closes and nothing predicts.
	at := test[warm-1].Time
	recs := make([]logs.Record, n)
	for i := range recs {
		recs[i] = test[warm-n+i]
		recs[i].Time = at
	}

	cfg := testConfig(2)
	cfg.SnapshotEvery = -1 // a snapshot is the monitor's allocation, not routing's
	c, err := New(model, start, cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	defer c.Close()
	mon := model.NewMonitor(start)
	defer mon.Close()
	for _, r := range test[:warm] {
		c.Feed(r)
		feedOK(t, mon, r)
	}
	// One unmeasured pass over the measured records grows the journal and
	// the open tick's tables the way the measured pass will find them.
	for _, r := range recs {
		c.Feed(r)
		feedOK(t, mon, r)
	}

	fleet := mallocs(func() {
		for _, r := range recs {
			c.Feed(r)
		}
	})
	bare := mallocs(func() {
		for _, r := range recs {
			feedOK(t, mon, r)
		}
	})
	t.Logf("%d records: fleet %d allocations, bare monitor %d", n, fleet, bare)
	if added := (float64(fleet) - float64(bare)) / n; added >= 0.1 {
		t.Fatalf("the fleet adds %.2f allocations a record over a bare monitor (%d vs %d over %d records)",
			added, fleet, bare, n)
	}
}

// BenchmarkCoordinatorFeed feeds the fixture stream through a 2-shard
// fleet, one record an op, with the benchmark harness's snapshot cadence.
// Run with -benchmem: allocs/op is the fleet's per-record allocation
// count, bare monitor included.
func BenchmarkCoordinatorFeed(b *testing.B) {
	model, test, start, _ := fixture(b)
	cfg := testConfig(2)
	cfg.SnapshotEvery = 10_000
	var c *Coordinator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(test) == 0 {
			b.StopTimer()
			if c != nil {
				c.Close()
			}
			var err error
			if c, err = New(model, start, cfg); err != nil {
				b.Fatalf("fleet.New: %v", err)
			}
			b.StartTimer()
		}
		c.Feed(test[i%len(test)])
	}
	b.StopTimer()
	c.Close()
}
