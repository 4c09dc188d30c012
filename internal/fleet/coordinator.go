package fleet

import (
	"bytes"
	"fmt"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/resilience"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// Coordinator routes records to shard slots, journals deliveries,
// supervises incarnations, and stamps each shard's predictions into one
// merged stream. Not safe for concurrent use.
type Coordinator struct {
	cfg   Config
	start time.Time
	blob  []byte // serialised model every incarnation loads privately

	ring   *Ring
	slots  []*slot
	byName map[string]*slot
	owners map[topology.Location]*slot // truncated location -> owning slot (route cache)

	stopWatch chan struct{} // closed by Close to end the watchdog

	records int64

	closed bool
	result *Result
}

// New builds a fleet from a trained model. The model is serialised once;
// every shard incarnation deserialises its own private copy, because
// resuming a monitor mutates its model's template organizer and shards
// must never share that state.
func New(model *elsa.Model, start time.Time, cfg Config) (*Coordinator, error) {
	cfg = cfg.normalised()
	var blob bytes.Buffer
	if err := model.Save(&blob); err != nil {
		return nil, fmt.Errorf("fleet: serialise model: %w", err)
	}
	c := &Coordinator{
		cfg:       cfg,
		start:     start,
		blob:      blob.Bytes(),
		ring:      NewRing(DefaultReplicas),
		byName:    make(map[string]*slot),
		owners:    make(map[topology.Location]*slot),
		stopWatch: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		name := fmt.Sprintf("shard%d", i)
		sl := &slot{
			name: name,
			sup:  resilience.New(cfg.Supervision),
			bo: resilience.NewBackoff(resilience.DefaultBaseBackoff, resilience.DefaultMaxBackoff,
				resilience.DefaultJitter, cfg.Handoff.Seed+int64(i)),
		}
		c.ring.Add(name)
		c.slots = append(c.slots, sl)
		c.byName[name] = sl
	}
	for _, sl := range c.slots {
		mon, err := c.newMonitor(nil)
		if err != nil {
			return nil, fmt.Errorf("fleet: start %s: %w", sl.name, err)
		}
		sl.spawn(mon)
		sl.state = slotActive
	}
	go watch(c.slots, max(cfg.FeedTimeout/4, 1), c.stopWatch) // last: New's error paths leave none behind
	return c, nil
}

// newMonitor builds a fresh incarnation's monitor: a private model from
// the blob, resumed from snap when the shard has one.
func (c *Coordinator) newMonitor(snap []byte) (*elsa.Monitor, error) {
	m, err := elsa.LoadModel(bytes.NewReader(c.blob))
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return m.NewMonitor(c.start), nil
	}
	return m.ResumeMonitor(bytes.NewReader(snap))
}

// ownerOf maps a record to the slot owning its scope key. The cache is
// keyed by the truncated location itself, so a hit allocates nothing; a
// miss hashes its String() on the ring.
func (c *Coordinator) ownerOf(rec logs.Record) *slot {
	key := rec.Location.Truncate(c.cfg.Scope)
	if sl, ok := c.owners[key]; ok {
		return sl
	}
	sl := c.byName[c.ring.Owner(key.String())]
	c.owners[key] = sl
	return sl
}

// Feed routes one record to its owning shard and returns the merged
// predictions that became visible.
func (c *Coordinator) Feed(rec logs.Record) []Merged {
	if c.closed {
		return nil
	}
	c.records++
	return c.deliver(c.ownerOf(rec), entry{kind: reqFeed, rec: rec})
}

// AdvanceTo closes sampling ticks up to now on every shard (the
// watermark is global: quiet shards must expire chains too).
func (c *Coordinator) AdvanceTo(now time.Time) []Merged {
	if c.closed {
		return nil
	}
	var out []Merged
	for _, sl := range c.slots {
		out = append(out, c.deliver(sl, entry{kind: reqAdvance, t: now})...)
	}
	return out
}

// deliver journals one entry at the slot that owns it and drives it
// through the live incarnation, triggering recovery when the slot is
// down or the incarnation fails the liveness probe.
func (c *Coordinator) deliver(sl *slot, e entry) []Merged {
	sl.journal = append(sl.journal, e)
	sl.seq++
	if e.kind == reqFeed {
		sl.records++
	} else {
		sl.advances++
	}

	if sl.state == slotDown {
		sl.gapEntries++
		sl.gapOpen++
		return c.recoverSlot(sl, false, false)
	}

	req := request{kind: e.kind, rec: e.rec, t: e.t, stall: sl.stallNext}
	sl.stallNext = 0
	resp, ok := sl.call(req, c.cfg.FeedTimeout)
	switch {
	case !ok:
		// Liveness probe missed: the watchdog expired the call.
		c.abandon(sl, "liveness probe timed out")
		sl.gapEntries++
		sl.gapOpen++
		return c.recoverSlot(sl, false, false)
	case resp.panicked:
		// The worker replied through the panic barrier and exited; the
		// supervisor already charged the panic.
		sl.retire()
		sl.gapEntries++
		sl.gapOpen++
		return c.recoverSlot(sl, false, false)
	}
	out := sl.merge(resp.preds, false)
	sl.served = sl.seq
	if c.cfg.SnapshotEvery > 0 && sl.seq-sl.snapSeq >= int64(c.cfg.SnapshotEvery) {
		out = append(out, c.takeSnapshot(sl)...)
	}
	return out
}

// abandon retires a live incarnation as failed: closing in and stop ends
// the (possibly wedged) worker goroutine whenever it next looks, and the
// failure is charged to the shard's breaker budget.
func (c *Coordinator) abandon(sl *slot, reason string) {
	sl.retire()
	sl.sup.Fail(reason)
}

// recoverSlot runs one bounded recovery round for a down slot: restore
// attempts gated by the breaker (unless force) and spaced by the
// handoff backoff. planned marks a rebalance succession (no gap, no
// failover accounting). Returns the catch-up predictions the successor's
// replay regenerated beyond the already-merged cursor.
func (c *Coordinator) recoverSlot(sl *slot, planned, force bool) []Merged {
	for attempt := 0; attempt < handoffTries; attempt++ {
		if !force && !sl.sup.Allow() {
			sl.denied++
			return nil // breaker open: stay down, keep accruing the gap
		}
		if attempt > 0 {
			c.cfg.Handoff.Sleep(sl.bo.Delay(attempt - 1))
		}
		out, err := c.restore(sl)
		if err != nil {
			sl.restoreFails++
			sl.sup.Fail(fmt.Sprintf("restore: %v", err))
			continue
		}
		sl.sup.OK()
		if planned {
			sl.handoffs++
		} else {
			sl.failovers++
			if sl.gapOpen > 0 {
				sl.gaps++
			}
		}
		sl.gapOpen = 0
		return out
	}
	return nil
}

// restore builds a successor incarnation from the shard's latest
// snapshot and replays the journal suffix past the snapshot's recorded
// ingest offset. Replayed predictions below the merge cursor are
// deterministic duplicates of already-merged ones and are skipped; the
// rest are merged flagged Degraded.
func (c *Coordinator) restore(sl *slot) ([]Merged, error) {
	if sl.failRestores > 0 {
		sl.failRestores--
		return nil, fmt.Errorf("injected restore failure")
	}
	mon, err := c.newMonitor(sl.snap)
	if err != nil {
		return nil, err
	}
	from := int64(0)
	if off, ok := mon.IngestOffset(); ok {
		from = off.Records
	}
	var preds []predict.Prediction
	var replayErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				replayErr = fmt.Errorf("replay panic: %v", r)
			}
		}()
		for _, e := range sl.journalFrom(from) {
			switch e.kind {
			case reqFeed:
				ps, err := mon.Feed(e.rec)
				if err != nil {
					replayErr = err
					return
				}
				preds = append(preds, ps...)
			case reqAdvance:
				preds = append(preds, mon.AdvanceTo(e.t)...)
			}
		}
	}()
	if replayErr != nil {
		return nil, replayErr
	}
	skip := sl.preds - sl.snapPreds
	if int64(len(preds)) < skip {
		// Replay must regenerate at least every already-merged prediction;
		// fewer is an accounting violation the chaos suite asserts never
		// happens.
		sl.replayShort++
		skip = int64(len(preds))
	}
	out := sl.merge(preds[skip:], true)
	sl.spawn(mon)
	sl.state = slotActive
	sl.served = sl.seq
	return out, nil
}

// takeSnapshot captures the live incarnation's state at the current
// journal seq and trims the journal. A snapshot failure leaves the
// previous snapshot in place; a liveness miss abandons the incarnation
// and recovers it.
func (c *Coordinator) takeSnapshot(sl *slot) []Merged {
	resp, ok := c.snapshot(sl)
	switch {
	case !ok:
		c.abandon(sl, "snapshot liveness probe timed out")
		return c.recoverSlot(sl, false, false)
	case resp.panicked:
		sl.retire()
		return c.recoverSlot(sl, false, false)
	case resp.err != nil:
		sl.snapFailures++
		return nil
	}
	sl.commitSnapshot(resp.snap, c.cfg.SnapshotEvery)
	return nil
}

// snapshot asks the live incarnation for its state at the current seq.
// A snapshot serialises the whole shard, not one record, so it does not
// share the per-record deadline: it gets Close's flush bound,
// 4×FeedTimeout. ok=false: the call outlived it, a failed liveness probe
// like a feed's.
func (c *Coordinator) snapshot(sl *slot) (response, bool) {
	req := request{kind: reqSnapshot, seq: sl.seq, stall: sl.stallSnap}
	sl.stallSnap = 0
	return sl.call(req, 4*c.cfg.FeedTimeout)
}

// Handoff drains a shard through a fresh snapshot and hands its state to
// a successor incarnation: the planned-rebalance path. Succession is
// byte-identical — the snapshot sits at the current seq, so the replay
// window is empty and no Degraded predictions are produced.
func (c *Coordinator) Handoff(name string) error {
	sl, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("fleet: unknown shard %q", name)
	}
	if c.closed {
		return fmt.Errorf("fleet: handoff after close")
	}
	if sl.state != slotActive {
		return fmt.Errorf("fleet: shard %s is down; crash failover owns its recovery", name)
	}
	resp, callOK := c.snapshot(sl)
	switch {
	case !callOK:
		c.abandon(sl, "handoff drain timed out")
		return fmt.Errorf("fleet: shard %s wedged during handoff drain; failing over", name)
	case resp.panicked:
		sl.retire()
		return fmt.Errorf("fleet: shard %s panicked during handoff drain; failing over", name)
	case resp.err != nil:
		return fmt.Errorf("fleet: shard %s handoff snapshot: %w", name, resp.err)
	}
	sl.commitSnapshot(resp.snap, c.cfg.SnapshotEvery)
	sl.retire()
	// The replay window is empty, so recovery regenerates nothing; were it
	// to, the Degraded counter would show it.
	c.recoverSlot(sl, true, false)
	if sl.state != slotActive {
		return fmt.Errorf("fleet: shard %s successor failed to start; will fail over on next delivery", name)
	}
	return nil
}

// Close force-recovers any down shards, flushes every shard's open
// ticks, and returns the merged tail plus per-shard results and final
// stats, then stops the watchdog. Idempotent.
//
//elsa:chanowner stopWatch
func (c *Coordinator) Close() *Result {
	if c.closed {
		return c.result
	}
	c.closed = true
	var tail []Merged
	perShard := make(map[string]*predict.Result, len(c.slots))
	for _, sl := range c.slots {
		if sl.state == slotDown {
			// Last chance: bypass the breaker so a recoverable shard's
			// journal suffix is not abandoned with the breaker open.
			tail = append(tail, c.recoverSlot(sl, false, true)...)
		}
		if sl.state == slotDown {
			sl.lost = sl.seq - sl.served
			sl.flushFails++ // unrecoverable: its open-tick tail is missing too
			continue
		}
		resp, ok := sl.call(request{kind: reqClose}, 4*c.cfg.FeedTimeout)
		if !ok || resp.panicked || resp.res == nil {
			c.abandon(sl, "close flush failed")
			sl.lost = sl.seq - sl.served
			sl.flushFails++ // the open-tick tail never surfaced; never silent
			continue
		}
		sl.retire()
		sl.state = slotClosed
		perShard[sl.name] = resp.res
		// The incarnation's accumulated result carries the shard's full
		// lineage history (resume preserves it), so the flush tail is
		// exactly the suffix past the merge cursor.
		if n := int64(len(resp.res.Predictions)); n > sl.preds {
			tail = append(tail, sl.merge(resp.res.Predictions[sl.preds:], false)...)
		}
	}
	close(c.stopWatch)
	c.result = &Result{Tail: tail, PerShard: perShard, Stats: c.Stats()}
	return c.result
}

// Stats snapshots the fleet's accounting.
func (c *Coordinator) Stats() Stats {
	scopesPer := make(map[string]int, len(c.slots))
	for _, sl := range c.owners {
		scopesPer[sl.name]++
	}
	st := Stats{Scopes: len(c.owners), Records: c.records}
	for _, sl := range c.slots {
		var state string
		switch sl.state {
		case slotActive:
			state = "active"
		case slotDown:
			state = "down"
		case slotClosed:
			state = "closed"
		}
		st.Shards = append(st.Shards, ShardStats{
			Name:            sl.name,
			State:           state,
			Scopes:          scopesPer[sl.name],
			Entries:         sl.seq,
			Records:         sl.records,
			Advances:        sl.advances,
			Predictions:     sl.preds,
			Degraded:        sl.degraded,
			Gaps:            sl.gaps,
			GapEntries:      sl.gapEntries,
			Snapshots:       sl.snapshots,
			SnapshotFails:   sl.snapFailures,
			JournalLen:      len(sl.journal),
			Handoffs:        sl.handoffs,
			Failovers:       sl.failovers,
			RestoreFailures: sl.restoreFails,
			RecoveryDenied:  sl.denied,
			ReplayShort:     sl.replayShort,
			LostEntries:     sl.lost,
			FlushFailures:   sl.flushFails,
			Supervisor:      sl.sup.Stats(),
		})
		st.Predictions += sl.preds
		st.Degraded += sl.degraded
		st.Lost += sl.lost
	}
	return st
}

// ShardNames lists the slots in index order (stable).
func (c *Coordinator) ShardNames() []string {
	names := make([]string, len(c.slots))
	for i, sl := range c.slots {
		names[i] = sl.name
	}
	return names
}

// Kill abandons a shard's live incarnation (chaos: hard crash). The
// shard recovers on its next delivery, breaker permitting. Reports
// whether there was a live incarnation to kill.
func (c *Coordinator) Kill(name string) bool {
	sl, ok := c.byName[name]
	if !ok || sl.state != slotActive {
		return false
	}
	c.abandon(sl, "chaos: shard killed")
	return true
}

// Stall arms a chaos stall: the shard's next delivery goes unresponsive
// past the liveness timeout, forcing an abandon-and-failover.
func (c *Coordinator) Stall(name string) bool {
	sl, ok := c.byName[name]
	if !ok || sl.state != slotActive {
		return false
	}
	sl.stallNext = 10 * c.cfg.FeedTimeout
	return true
}

// FailRestores arms a shard's next recoveries to fail up to n times,
// exercising the retry/backoff and breaker paths. Re-arming does not
// stack beyond n: the injected fault depth stays bounded, so a chaos
// schedule with n below the handoff attempt budget provably cannot wedge
// a shard past its clean tail.
func (c *Coordinator) FailRestores(name string, n int) {
	if sl, ok := c.byName[name]; ok && n > sl.failRestores {
		sl.failRestores = n
	}
}
