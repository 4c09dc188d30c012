package fleet

import (
	"bytes"
	"sync/atomic"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/ingest"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/resilience"
)

// entry is one journaled unit of shard input: a routed record or an
// AdvanceTo watermark. The journal is what makes failover lossless — a
// successor replays entries past its snapshot's ingest offset and lands
// in exactly the state the dead incarnation held.
type entry struct {
	kind reqKind // reqFeed or reqAdvance
	rec  logs.Record
	t    time.Time
}

// reqKind selects the worker operation.
type reqKind uint8

const (
	reqFeed reqKind = iota
	reqAdvance
	reqSnapshot
	reqClose
)

// request is one synchronous call into a shard worker. It carries no
// channel: the incarnation's one reply channel answers every call.
type request struct {
	kind  reqKind
	rec   logs.Record
	t     time.Time
	seq   int64         // journal seq recorded into a snapshot's ingest offset
	stall time.Duration // chaos: sleep this long before serving (liveness-probe stall)
}

// response is the one message a call receives. panicked means the
// monitor call blew through the panic barrier: the incarnation is dead
// and the supervisor has already charged the failure. expired is the
// watchdog's answer to a call past its deadline (a failed liveness probe).
type response struct {
	preds    []predict.Prediction
	snap     []byte
	res      *predict.Result
	err      error
	panicked bool
	expired  bool
}

// Call states of worker.due. A positive value is busy: the deadline of
// the call in flight, on the nanotime clock.
const (
	callIdle    int64 = 0
	callExpired int64 = -1
)

var epoch = time.Now() // anchors nanotime, the monotonic deadline clock

func nanotime() int64 { return int64(time.Since(epoch)) }

// worker is one shard incarnation: a goroutine owning one Monitor (and
// its private Model instance — ResumeMonitor mutates the model's
// organizer, so incarnations never share models). The coordinator sends
// one request at a time on in and receives exactly one message on reply.
type worker struct {
	in    chan request  // buffered 1; closed by retire
	reply chan response // buffered 1; one message per call
	stop  chan struct{} // closed by retire; only a chaos stall waits on it
	// due is the call state: idle → busy (call) → idle (answer) or
	// expired (expire). The CAS off busy decides which side replies.
	due atomic.Int64
}

// answer replies to the call in flight unless the watchdog expired it
// first. Only expire moves due off busy meanwhile, so a failed CAS means
// the call has had its one message.
func (w *worker) answer(resp response) {
	if d := w.due.Load(); d > callIdle && w.due.CompareAndSwap(d, callIdle) {
		w.reply <- resp
	}
}

// expire answers the call in flight expired if its deadline is before
// now. The CAS compares the deadline itself, so it can only succeed on a
// call whose deadline has passed: a late expiry never hits a later call.
func (w *worker) expire(now int64) {
	if d := w.due.Load(); d > callIdle && d < now && w.due.CompareAndSwap(d, callExpired) {
		w.reply <- response{expired: true}
	}
}

// watch is a Coordinator's watchdog: every period until stop closes, it
// expires each incarnation's overdue call — at period FeedTimeout/4,
// within [FeedTimeout, 1.25×FeedTimeout] of its send.
func watch(slots []*slot, period time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			now := nanotime()
			for _, sl := range slots {
				if w := sl.w.Load(); w != nil {
					w.expire(now)
				}
			}
		}
	}
}

// slotState is a shard slot's lifecycle state.
type slotState uint8

const (
	slotActive slotState = iota
	slotDown
	slotClosed // flushed cleanly at Close; terminal
)

// slot is one logical shard: the stable identity records hash to. Worker
// incarnations come and go underneath it (crash, chaos kill, planned
// handoff); the slot keeps the journal, the latest snapshot, the merge
// cursor and the accounting that must survive incarnations.
//
// The incarnation lifecycle is a declared typestate protocol: spawn
// brings a down slot live, retire takes it down, and a snapshot may
// only be committed against a live incarnation — the handoff ordering
// (snapshot, then retire, then successor) is statically checked.
//
//elsa:state down live
type slot struct {
	name string
	sup  *resilience.Supervisor
	bo   *resilience.Backoff

	w     atomic.Pointer[worker] // the live incarnation, nil while down; the watchdog reads it too
	state slotState

	// Journal of entries delivered to this slot since the last snapshot
	// trim. trimBase is the seq of journal[0]; seq is the next seq to be
	// assigned (== total entries ever delivered).
	journal  []entry
	trimBase int64
	seq      int64

	// Merge cursor and snapshot state. preds counts predictions merged
	// into the cluster stream across the slot's whole lineage; snapPreds
	// and snapSeq pin where the latest snapshot sits in that lineage, so
	// failover replay knows how many regenerated predictions are
	// duplicates of already-merged ones.
	preds     int64
	snap      []byte
	snapSeq   int64
	snapPreds int64

	// served is the seq up to which entries have provably been processed
	// by some incarnation and their predictions merged (directly or via
	// replay). seq - served is the exact loss if the slot is abandoned.
	served int64

	// Accounting (exact: the chaos suite asserts on these).
	records      int64
	advances     int64
	degraded     int64 // catch-up predictions merged with the Degraded flag
	gaps         int64 // distinct outage windows closed by a failover
	gapEntries   int64 // entries journaled while no incarnation was live (cumulative)
	gapOpen      int64 // gap entries in the outage in progress
	misrouted    int64 // records offered to this slot that it did not own
	snapshots    int64
	snapFailures int64
	handoffs     int64 // planned snapshot-handoff successions
	failovers    int64 // crash successions
	restoreFails int64 // failed restore/replay attempts
	denied       int64 // recovery attempts denied by the open breaker
	replayShort  int64 // replays yielding fewer predictions than the merge cursor expects (must stay 0)
	lost         int64 // entries whose effects were never merged (unrecoverable slot at Close)
	flushFails   int64 // Close flushes that failed: the open-tick tail is missing, accounted here

	// Chaos hooks armed by the injector through the coordinator.
	stallNext    time.Duration
	failRestores int

	result *predict.Result // final per-shard result captured at Close
}

// spawn starts a new incarnation serving mon.
//
//elsa:transition down->live
func (sl *slot) spawn(mon *elsa.Monitor) {
	w := &worker{
		in:    make(chan request, 1),
		reply: make(chan response, 1),
		stop:  make(chan struct{}),
	}
	sl.w.Store(w)
	go sl.serve(w, mon)
}

// serve is the incarnation loop: a plain receive on in until retire
// closes it. Every monitor call runs behind the slot supervisor's panic
// barrier, bound once per incarnation; a panic answers the call with
// panicked=true and ends the incarnation, leaving recovery to the
// coordinator.
func (sl *slot) serve(w *worker, mon *elsa.Monitor) {
	var req request
	var resp response
	run := func() {
		switch req.kind {
		case reqFeed:
			resp.preds, resp.err = mon.Feed(req.rec)
		case reqAdvance:
			resp.preds = mon.AdvanceTo(req.t)
		case reqSnapshot:
			mon.SetIngestOffset(ingest.Offset{Records: req.seq})
			var buf bytes.Buffer
			if err := mon.Snapshot(&buf); err != nil {
				resp.err = err
				return
			}
			resp.snap = buf.Bytes()
		case reqClose:
			resp.res = mon.Close()
		}
	}
	for req = range w.in {
		if req.stall > 0 {
			// Chaos stall: go unresponsive long enough for the watchdog
			// to expire the call. Exit early once retired — the answer
			// would be dropped anyway.
			t := time.NewTimer(req.stall)
			select {
			case <-t.C:
			case <-w.stop:
				t.Stop()
				return
			}
		}
		resp = response{}
		ok := sl.sup.Do(run)
		resp.panicked = !ok
		w.answer(resp)
		if !ok || req.kind == reqClose {
			return
		}
	}
}

// call performs one synchronous request against the live incarnation,
// bounded by timeout (the liveness probe): it arms the deadline, sends,
// and receives the call's one message. The send never blocks: in holds
// one request, and the previous call's was consumed before its reply
// arrived. ok=false means the watchdog expired the call: the worker is
// wedged and the caller must abandon it.
//
//elsa:requires live
func (sl *slot) call(req request, timeout time.Duration) (response, bool) {
	w := sl.w.Load()
	w.due.Store(nanotime() + int64(timeout))
	w.in <- req
	resp := <-w.reply
	return resp, !resp.expired
}

// retire ends the live incarnation without charging a failure (planned
// handoff, Close, or a worker that already exited through the panic
// barrier). The coordinator's slot is the single owner of every
// incarnation's in and stop channels: it is in's only sender, and
// workers only ever receive on stop.
//
//elsa:chanowner w.in w.stop
//elsa:transition live->down down->down
func (sl *slot) retire() {
	if w := sl.w.Swap(nil); w != nil {
		close(w.in)
		close(w.stop)
	}
	sl.state = slotDown
}

// merge stamps a batch of raw predictions with the slot's identity and
// advances the merge cursor. Catch-up predictions regenerated by a
// failover replay are flagged Degraded: the forecast content is
// byte-identical to the clean run's, but it surfaced late.
func (sl *slot) merge(preds []predict.Prediction, catchUp bool) []Merged {
	if len(preds) == 0 {
		return nil
	}
	out := make([]Merged, 0, len(preds))
	for _, p := range preds {
		if catchUp {
			p.Degraded = true
			sl.degraded++
		}
		out = append(out, Merged{Shard: sl.name, Seq: sl.preds, Prediction: p})
		sl.preds++
	}
	return out
}

// journalFrom returns the journal suffix starting at absolute seq.
func (sl *slot) journalFrom(seq int64) []entry {
	i := seq - sl.trimBase
	if i < 0 {
		i = 0
	}
	if i > int64(len(sl.journal)) {
		i = int64(len(sl.journal))
	}
	return sl.journal[i:]
}

// commitSnapshot installs a fresh snapshot taken at the current seq and
// trims the journal: entries at seq < snapSeq can never be replayed
// again. The suffix is copied out so the trimmed prefix's backing array
// is released. The snapshot must have been taken from the still-live
// incarnation — committing after retire would trim journal entries the
// successor still needs to replay.
//
//elsa:requires live
func (sl *slot) commitSnapshot(snap []byte) {
	sl.snap = snap
	sl.snapSeq = sl.seq
	sl.snapPreds = sl.preds
	sl.snapshots++
	keep := sl.journalFrom(sl.snapSeq)
	sl.journal = append(make([]entry, 0, len(keep)), keep...)
	sl.trimBase = sl.snapSeq
}
