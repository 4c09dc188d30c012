package fleet

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
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
