package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/bench"
	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/sig"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// This file freezes the sample stage as it was before ticks became
// recycled slots — a tick of two maps, open ticks in a map, every
// closing record returning a slice of closed ticks — and holds the
// Session to it: tick for tick, prediction for prediction, snapshot for
// snapshot.

// mapTick is the frozen map tick: per-event counts, the first location
// per event, the number of stamped records. Its JSON is the snapshot
// wire form of an open tick.
type mapTick struct {
	Counts   map[int]int
	FirstLoc map[int]topology.Location
	N        int
}

func newMapTick() *mapTick {
	return &mapTick{Counts: make(map[int]int), FirstLoc: make(map[int]topology.Location)}
}

func (t *mapTick) add(r logs.Record) {
	if r.EventID < 0 {
		return
	}
	t.N++
	t.Counts[r.EventID]++
	if _, ok := t.FirstLoc[r.EventID]; !ok {
		t.FirstLoc[r.EventID] = r.Location
	}
}

// dense is the predict.Tick the map tick stands for, built fresh with its
// ids in ascending order.
func (t *mapTick) dense() *predict.Tick {
	ids := make([]int, 0, len(t.Counts))
	for id := range t.Counts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	d := predict.NewTick()
	for _, id := range ids {
		for n := t.Counts[id]; n > 0; n-- {
			d.Add(logs.Record{EventID: id, Location: t.FirstLoc[id]})
		}
	}
	return d
}

// sameTick reports how a tick differs from the map tick, "" when it
// does not.
func sameTick(got *predict.Tick, want *mapTick) string {
	if got.N != want.N || got.Counts.Len() != len(want.Counts) {
		return fmt.Sprintf("N %d over %d ids, want %d over %d", got.N, got.Counts.Len(), want.N, len(want.Counts))
	}
	for id, n := range want.Counts {
		if got.Counts.Of(id) != n || got.FirstLoc(id) != want.FirstLoc[id] {
			return fmt.Sprintf("event %d: %d records first at %v, want %d at %v",
				id, got.Counts.Of(id), got.FirstLoc(id), n, want.FirstLoc[id])
		}
	}
	return ""
}

type mapBatch struct {
	idx        int
	start, end time.Time
	sample     *mapTick
}

// mapSampler is the frozen sampler: the same ordering contract, with the
// open ticks in a map and closed ticks handed back as a slice.
type mapSampler struct {
	origin   time.Time
	step     time.Duration
	limit    int
	next     int
	hw       time.Time
	open     map[int]*mapTick
	buffered int
	late     int64
	outside  int64
}

func newMapSampler(origin time.Time, step time.Duration, limit int) *mapSampler {
	return &mapSampler{origin: origin, step: step, limit: limit, open: make(map[int]*mapTick)}
}

func (s *mapSampler) tickStart(idx int) time.Time {
	return s.origin.Add(time.Duration(idx) * s.step)
}

func (s *mapSampler) tooFarAhead(d time.Duration) bool {
	return s.limit < 0 && d-time.Duration(s.next)*s.step > maxForwardJump
}

func (s *mapSampler) add(rec logs.Record) (ready []mapBatch, ok bool) {
	if rec.Time.Before(s.origin) {
		s.outside++
		return nil, false
	}
	d := rec.Time.Sub(s.origin)
	idx := int(d / s.step)
	if s.limit >= 0 && idx >= s.limit {
		s.outside++
		return nil, false
	}
	if idx < s.next || s.tooFarAhead(d) {
		s.late++
		return nil, false
	}
	t := s.open[idx]
	if t == nil {
		t = newMapTick()
		s.open[idx] = t
	}
	n0 := t.N
	t.add(rec)
	s.buffered += t.N - n0
	if rec.Time.After(s.hw) {
		s.hw = rec.Time
	}
	for !s.hw.Before(s.tickStart(s.next + 1 + DefaultGraceTicks)) {
		ready = append(ready, s.closeNext())
	}
	return ready, true
}

func (s *mapSampler) bump(ts time.Time) (ready []mapBatch) {
	if ts.After(s.hw) && !s.tooFarAhead(ts.Sub(s.origin)) {
		s.hw = ts
	}
	for !s.hw.Before(s.tickStart(s.next + 1 + DefaultGraceTicks)) {
		if s.limit >= 0 && s.next >= s.limit {
			break
		}
		ready = append(ready, s.closeNext())
	}
	return ready
}

func (s *mapSampler) advanceTo(now time.Time) (ready []mapBatch) {
	for {
		if s.limit >= 0 && s.next >= s.limit {
			return ready
		}
		if now.Before(s.tickStart(s.next + 1)) {
			return ready
		}
		ready = append(ready, s.closeNext())
	}
}

func (s *mapSampler) flush() (ready []mapBatch) {
	target := s.limit
	if s.limit < 0 {
		target = s.next
		for idx := range s.open {
			if idx >= target {
				target = idx + 1
			}
		}
	}
	for s.next < target {
		ready = append(ready, s.closeNext())
	}
	return ready
}

func (s *mapSampler) closeNext() mapBatch {
	idx := s.next
	t := s.open[idx]
	if t == nil {
		t = newMapTick()
	} else {
		delete(s.open, idx)
		s.buffered -= t.N
	}
	s.next++
	return mapBatch{idx: idx, start: s.tickStart(idx), end: s.tickStart(idx + 1), sample: t}
}

// refSession is the frozen Session over the map sampler, running each
// closed tick through the same stage bodies of a pipeline of its own.
type refSession struct {
	p   *Pipeline
	smp *mapSampler
	res *predict.Result
}

func (p *Pipeline) newRefSession(start time.Time, nTicks int) *refSession {
	return &refSession{p: p, smp: newMapSampler(start, p.eng.Step(), nTicks), res: p.eng.NewResult()}
}

func (s *refSession) Feed(rec logs.Record) []predict.Prediction {
	src := &s.p.counters[stageSource]
	src.in.Add(1)
	if !s.p.ingest(&rec) {
		return nil
	}
	src.out.Add(1)
	if s.p.shouldShed(s.smp.buffered) {
		return s.shed(rec.Time)
	}
	s.p.stampSafe(&rec)
	return s.sample(rec)
}

func (s *refSession) shed(ts time.Time) []predict.Prediction {
	s.p.counters[stageSample].shed.Add(1)
	return s.runBatches(s.smp.bump(ts))
}

func (s *refSession) sample(rec logs.Record) []predict.Prediction {
	if s.p.accum != nil && rec.EventID >= 0 {
		s.p.accum.NoteSeverity(rec.EventID, int(rec.Severity))
	}
	c := &s.p.counters[stageSample]
	c.in.Add(1)
	batches, accepted := s.smp.add(rec)
	if !accepted {
		c.dropped.Add(1)
		s.res.Stats.LateRecords++
	}
	c.observeQueue(s.smp.buffered)
	return s.runBatches(batches)
}

func (s *refSession) AdvanceTo(now time.Time) []predict.Prediction {
	return s.runBatches(s.smp.advanceTo(now))
}

func (s *refSession) Close() *predict.Result {
	s.runBatches(s.smp.flush())
	s.p.fillStats(&s.res.Stats)
	return s.res
}

func (s *refSession) runBatches(batches []mapBatch) []predict.Prediction {
	var out []predict.Prediction
	for _, mb := range batches {
		b := tickBatch{idx: mb.idx, start: mb.start, end: mb.end, sample: mb.sample.dense()}
		s.p.counters[stageSample].out.Add(1)
		hits := s.p.detectSafe(b.sample, b.start)
		if s.p.accum != nil {
			s.p.observeTick(b, hits)
		}
		out = append(out, s.p.matchSafe(b, hits, s.res)...)
	}
	return out
}

// refSessionState is SessionState with the open ticks as map ticks.
type refSessionState struct {
	Origin    time.Time            `json:"origin"`
	Step      time.Duration        `json:"step"`
	NextTick  int                  `json:"next_tick"`
	HighWater time.Time            `json:"high_water"`
	Open      map[int]*mapTick     `json:"open,omitempty"`
	Late      int64                `json:"late,omitempty"`
	Outside   int64                `json:"outside,omitempty"`
	Shedding  bool                 `json:"shedding,omitempty"`
	Accum     *sig.AccumState      `json:"accum,omitempty"`
	Engine    *predict.EngineState `json:"engine"`
	Result    *predict.Result      `json:"result"`
}

func (s *refSession) State() *refSessionState {
	st := &refSessionState{
		Origin:    s.smp.origin,
		Step:      s.smp.step,
		NextTick:  s.smp.next,
		HighWater: s.smp.hw,
		Late:      s.smp.late,
		Outside:   s.smp.outside,
		Shedding:  s.p.shedding.Load(),
		Engine:    s.p.eng.State(),
	}
	if len(s.smp.open) > 0 {
		st.Open = make(map[int]*mapTick, len(s.smp.open))
		for idx, t := range s.smp.open {
			c := newMapTick()
			c.N = t.N
			for k, v := range t.Counts {
				c.Counts[k] = v
			}
			for k, v := range t.FirstLoc {
				c.FirstLoc[k] = v
			}
			st.Open[idx] = c
		}
	}
	if s.p.accum != nil {
		st.Accum = s.p.accum.State()
	}
	res := &predict.Result{
		Predictions: append([]predict.Prediction(nil), s.res.Predictions...),
		Stats:       s.res.Stats,
	}
	res.Stats.ChainsUsed = copyCounts(s.res.Stats.ChainsUsed)
	s.p.fillStats(&res.Stats)
	st.Result = res
	return st
}

// stableJSON marshals a session state or result with the stage wall
// times zeroed: everything else in it is a function of the stream.
func stableJSON(t testing.TB, v any) []byte {
	t.Helper()
	var stages []predict.StageStats
	switch x := v.(type) {
	case *SessionState:
		stages = x.Result.Stats.Stages
	case *refSessionState:
		stages = x.Result.Stats.Stages
	case *predict.Result:
		stages = x.Stats.Stages
	}
	for i := range stages {
		stages[i].Wall = 0
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refOp is one step of a scripted stream: feed a record, advance the
// wall clock, or kill and resume the live session.
type refOp struct {
	kind int
	rec  logs.Record
	at   time.Time
}

const (
	opFeed = iota
	opAdvance
	opResume
)

// refRig is a model both sessions run over.
type refRig struct {
	model    *correlate.Model
	profiles map[string]*location.Profile
	cfg      Config
}

func (r refRig) pipeline() *Pipeline {
	cfg := r.cfg
	if cfg.Accumulate != nil {
		ac := *cfg.Accumulate
		cfg.Accumulate = &ac
	}
	return New(predict.NewEngine(r.model, r.profiles, predict.DefaultConfig()), nil, cfg)
}

// compareWithMapReference drives a live Session and the frozen map
// session through ops from start: every op's predictions byte-equal,
// every closed tick of the live sampler equal to the map tick the
// reference closed, and, every 97th op and at the end, the session
// snapshot (engine windows, accumulator state, open ticks, result)
// byte-equal. A resume op carries the live session through its JSON
// snapshot onto a fresh pipeline; the reference runs on uninterrupted.
func compareWithMapReference(t testing.TB, rig refRig, start time.Time, ops []refOp) predict.Stats {
	t.Helper()
	live := rig.pipeline().NewSession(start)
	ref := rig.pipeline().newRefSession(start, -1)
	for i, op := range ops {
		var got, want []predict.Prediction
		switch op.kind {
		case opFeed:
			var err error
			if got, err = live.Feed(op.rec); err != nil {
				t.Fatal(err)
			}
			want = ref.Feed(op.rec)
		case opAdvance:
			got, want = live.AdvanceTo(op.at), ref.AdvanceTo(op.at)
		case opResume:
			live = resumeThroughJSON(t, rig, live)
		}
		if g, w := stableJSON(t, got), stableJSON(t, want); !bytes.Equal(g, w) {
			t.Fatalf("op %d (%d at %v): predictions\n%s\nwant\n%s", i, op.kind, op.rec.Time, g, w)
		}
		if msg := sameOpenTicks(live.smp, ref.smp); msg != "" {
			t.Fatalf("op %d: %s", i, msg)
		}
		if i%97 == 96 {
			sameSessionState(t, live, ref, fmt.Sprintf("op %d", i))
		}
	}
	sameSessionState(t, live, ref, "end of stream")
	res := live.Close()
	if g, w := stableJSON(t, res), stableJSON(t, ref.Close()); !bytes.Equal(g, w) {
		t.Fatalf("closed results differ\n%s\nwant\n%s", g, w)
	}
	return res.Stats
}

// sameOpenTicks compares the live sampler's cursor and open slots with
// the reference's map.
func sameOpenTicks(s *sampler, ref *mapSampler) string {
	if s.next != ref.next || !s.hw.Equal(ref.hw) || s.buffered != ref.buffered || s.late != ref.late {
		return fmt.Sprintf("cursor %d hw %v buffered %d late %d, want %d %v %d %d",
			s.next, s.hw, s.buffered, s.late, ref.next, ref.hw, ref.buffered, ref.late)
	}
	open := 0
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.idx < s.next {
			continue
		}
		open++
		want, ok := ref.open[sl.idx]
		if !ok {
			return fmt.Sprintf("tick %d is open, not in the reference", sl.idx)
		}
		if msg := sameTick(&sl.tick, want); msg != "" {
			return fmt.Sprintf("open tick %d: %s", sl.idx, msg)
		}
	}
	if open != len(ref.open) {
		return fmt.Sprintf("%d open ticks, the reference %d", open, len(ref.open))
	}
	return ""
}

func sameSessionState(t testing.TB, live *Session, ref *refSession, at string) {
	t.Helper()
	st, err := live.State()
	if err != nil {
		t.Fatal(err)
	}
	// The state carries Accumulator.State() in Accum.
	if g, w := stableJSON(t, st), stableJSON(t, ref.State()); !bytes.Equal(g, w) {
		t.Fatalf("%s: session state\n%s\nwant\n%s", at, g, w)
	}
}

// resumeThroughJSON snapshots s, decodes the bytes and resumes them on a
// fresh pipeline over the rig's model.
func resumeThroughJSON(t testing.TB, rig refRig, s *Session) *Session {
	t.Helper()
	st, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back SessionState
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	resumed, err := rig.pipeline().ResumeSession(&back)
	if err != nil {
		t.Fatal(err)
	}
	return resumed
}

// feeds turns records into feed ops.
func feeds(recs []logs.Record) []refOp {
	ops := make([]refOp, len(recs))
	for i, r := range recs {
		ops[i] = refOp{kind: opFeed, rec: r}
	}
	return ops
}

// jittered re-orders the stream's arrival: each record arrives as if
// stamped up to maxLate later, its own timestamp unchanged. Below one
// tick every record lands within the grace; past two, some are late
// beyond it.
func jittered(recs []logs.Record, maxLate time.Duration, seed int64) []logs.Record {
	rng := rand.New(rand.NewSource(seed))
	type arrival struct {
		at  time.Time
		rec logs.Record
	}
	arr := make([]arrival, len(recs))
	for i, r := range recs {
		arr[i] = arrival{r.Time.Add(time.Duration(rng.Int63n(int64(maxLate)))), r}
	}
	slices.SortStableFunc(arr, func(a, b arrival) int { return a.at.Compare(b.at) })
	out := make([]logs.Record, len(arr))
	for i, a := range arr {
		out[i] = a.rec
	}
	return out
}

// jumped shifts the stream forward by the next of jumps (in steps) every
// every records, so the sampler closes runs of empty ticks at once.
func jumped(recs []logs.Record, step time.Duration, every int, jumps ...int) []logs.Record {
	out := append([]logs.Record(nil), recs...)
	shift := time.Duration(0)
	for i := range out {
		if i > 0 && i%every == 0 {
			shift += time.Duration(jumps[(i/every-1)%len(jumps)]) * step
		}
		out[i].Time = out[i].Time.Add(shift)
	}
	return out
}

// withAdvances interleaves a wall-clock advance, up to 30 s past the
// record before it, every every records.
func withAdvances(ops []refOp, every int, seed int64) []refOp {
	rng := rand.New(rand.NewSource(seed))
	var out []refOp
	for i, op := range ops {
		out = append(out, op)
		if i%every == every-1 {
			out = append(out, refOp{kind: opAdvance, at: op.rec.Time.Add(time.Duration(rng.Intn(30)) * time.Second)})
		}
	}
	return out
}

// withResume kills and resumes the live session after op at.
func withResume(ops []refOp, at int) []refOp {
	out := append([]refOp(nil), ops[:at]...)
	out = append(out, refOp{kind: opResume})
	return append(out, ops[at:]...)
}

// withOddIDs re-stamps every every-th record as unstamped (-1, no
// signal, yet the tick it lands in is open) or as an id far past any
// template (a sparse hit taking the tables' map paths).
func withOddIDs(recs []logs.Record, every int) []logs.Record {
	out := append([]logs.Record(nil), recs...)
	for i := every - 1; i < len(out); i += every {
		if (i/every)%2 == 0 {
			out[i].EventID = -1
		} else {
			out[i].EventID = 1 << 40
		}
	}
	return out
}

var (
	bgl200Once sync.Once
	bgl200Rig  refRig
	bgl200Test []logs.Record
	bgl200Cut  time.Time
)

// trainedBGL200 trains a hybrid model on a day of the 200-template BG/L
// profile (170 dense detectors) and returns six hours of stream after it.
func trainedBGL200(t testing.TB) (refRig, []logs.Record, time.Time) {
	t.Helper()
	bgl200Once.Do(func() {
		cut := t0.Add(24 * time.Hour)
		res := gen.New(bench.ScaledBGL(200), 12).Generate(t0, 30*time.Hour)
		helo.New(0).Assign(res.Records)
		train, test, _ := res.Split(cut)
		model := correlate.Train(train, t0, cut, correlate.Hybrid, correlate.DefaultConfig())
		profiles := location.Extract(train, model.Chains, t0, model.Step, 1)
		bgl200Rig = refRig{model: model, profiles: profiles, cfg: Config{MaxBuffered: DefaultMaxBuffered, Accumulate: accumConfigFor()}}
		bgl200Test, bgl200Cut = test, cut
	})
	return bgl200Rig, append([]logs.Record(nil), bgl200Test...), bgl200Cut
}

// bglRig returns the BG/L fixture with the accumulator armed, and the
// first n records of its test stream.
func bglRig(t testing.TB, n int) (refRig, []logs.Record, time.Time) {
	model, profiles, test, cut, _ := trained(t, 501)
	return refRig{model: model, profiles: profiles, cfg: Config{MaxBuffered: DefaultMaxBuffered, Accumulate: accumConfigFor()}},
		test[:min(n, len(test))], cut
}

// TestSamplerMatchesMapReference: on the BG/L and bgl200 streams, in
// order and under every ordering the ingest contract admits — records
// late within and past the grace, jumps of 1, 2, 3 and 10 ticks and of
// two days, wall-clock advances, overload shedding, unstamped and far-id
// records, a resume mid-stream — the slot sampler closes the same ticks
// as the frozen map sampler and the session predicts, filters and
// snapshots byte for byte the same.
func TestSamplerMatchesMapReference(t *testing.T) {
	rig, recs, cut := bglRig(t, 20000)
	shedding := rig
	shedding.cfg.MaxBuffered = 12
	step := rig.model.Step
	// exercised names what each ordering must have made happen, so a
	// stream that stops reaching its path fails instead of passing idle.
	exercised := func(want string, ok func(st predict.Stats) bool) func(predict.Stats) string {
		return func(st predict.Stats) string {
			if !ok(st) {
				return want
			}
			return ""
		}
	}
	late := exercised("no record late past the grace", func(st predict.Stats) bool { return st.LateRecords > 0 })
	onTime := exercised("records dropped as late", func(st predict.Stats) bool { return st.LateRecords == 0 })
	shed := exercised("no record shed", func(st predict.Stats) bool { return st.ShedRecords > 0 })
	always := exercised("", func(predict.Stats) bool { return true })
	cases := []struct {
		name   string
		rig    refRig
		ops    []refOp
		expect func(predict.Stats) string
	}{
		{"bgl/in-order", rig, feeds(recs), onTime},
		{"bgl/late-within-grace", rig, feeds(jittered(recs, 9*time.Second, 1)), onTime},
		{"bgl/late-past-grace", rig, feeds(jittered(recs, 35*time.Second, 2)), late},
		{"bgl/jumps-1-2-3-10", rig, feeds(jumped(recs, step, 401, 1, 2, 3, 10)), onTime},
		{"bgl/jump-2-days", rig, feeds(jumped(recs, 2*24*time.Hour, len(recs)/2, 1)), onTime},
		{"bgl/advance-to", rig, withAdvances(feeds(jittered(recs, 15*time.Second, 3)), 149, 4), late},
		{"bgl/shedding", shedding, feeds(recs), shed},
		{"bgl/odd-ids", rig, feeds(withOddIDs(jittered(recs, 12*time.Second, 5), 37)), always},
		{"bgl/resumed", rig, withResume(feeds(jittered(recs, 12*time.Second, 6)), len(recs)/3), always},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if msg := c.expect(compareWithMapReference(t, c.rig, cut, c.ops)); msg != "" {
				t.Fatalf("the stream did not exercise its path: %s", msg)
			}
		})
	}
	t.Run("bgl200/resumed", func(t *testing.T) {
		rig, recs, cut := trainedBGL200(t)
		recs = recs[:min(len(recs), 12000)]
		compareWithMapReference(t, rig, cut, withResume(feeds(jittered(recs, 12*time.Second, 7)), len(recs)/2))
	})
}

// TestBoundedRunMatchesMapReference: a bounded replay (Run) — its flush
// closing the trailing empty ticks of the window, shedding included —
// returns the result the frozen map session replays to.
func TestBoundedRunMatchesMapReference(t *testing.T) {
	rig, recs, cut := bglRig(t, 20000)
	for _, maxBuffered := range []int{DefaultMaxBuffered, 40} {
		rig.cfg.MaxBuffered = maxBuffered
		end := recs[len(recs)-1].Time.Add(time.Hour)
		got, err := rig.pipeline().Run(context.Background(), logs.NewSliceSource(recs), cut, end)
		if err != nil {
			t.Fatal(err)
		}
		p := rig.pipeline()
		ref := p.newRefSession(cut, int(end.Sub(cut)/rig.model.Step))
		for _, r := range recs {
			// Run's source and template stages, one chunk ahead there.
			p.counters[stageSource].in.Add(1)
			p.counters[stageSource].out.Add(1)
			p.stampSafe(&r)
			if p.shouldShed(ref.smp.buffered) {
				ref.shed(r.Time)
			} else {
				ref.sample(r)
			}
		}
		want := ref.Close()
		want.Stats.LateRecords = int(ref.smp.late)
		if g, w := stableJSON(t, got), stableJSON(t, want); !bytes.Equal(g, w) {
			t.Fatalf("MaxBuffered %d: bounded replay\n%s\nwant\n%s", maxBuffered, g, w)
		}
	}
}

// FuzzSamplerMatchesMapReference: any arrival order, timestamp jumps,
// wall-clock advances, unstamped records, shedding threshold and resume
// points — the slot session agrees with the frozen map session on every
// op's predictions, every open tick and every snapshot.
func FuzzSamplerMatchesMapReference(f *testing.F) {
	f.Add([]byte{3, 0x01, 0x11, 0x21, 0x31, 0xc9, 0x05, 0x15, 0xc4, 0x25, 0xcd, 0x31, 0xc2, 0x01})
	f.Add([]byte{0, 0x10, 0x10, 0x10, 0x20, 0x30, 0xfe, 0x10, 0x20, 0xca, 0x11, 0x11})
	f.Add([]byte{1, 0x0f, 0x3f, 0x2f, 0xc5, 0xd1, 0x1f, 0xc1, 0x0f})
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 400 {
			return
		}
		rig := refRig{model: fuzzModel(), cfg: Config{MaxBuffered: int(data[0] % 8), Accumulate: accumConfigFor()}}
		step := rig.model.Step
		cur := t0
		var ops []refOp
		for _, b := range data[1:] {
			if b>>6 == 3 {
				switch arg := time.Duration(b >> 2 & 15); b & 3 {
				case 0:
					ops = append(ops, refOp{kind: opAdvance, at: cur.Add(arg * time.Second * 3)})
				case 1:
					ops = append(ops, refOp{kind: opResume})
				case 2:
					cur = cur.Add(arg * step)
				case 3:
					ops = append(ops, refOp{kind: opFeed, rec: logs.Record{Time: cur, EventID: -1, Location: node}})
				}
				continue
			}
			// Low nibble: seconds forward; bits 4-5: event id.
			cur = cur.Add(time.Duration(b&15) * time.Second)
			at := cur
			if b&8 != 0 {
				at = cur.Add(-time.Duration(b&7) * 5 * time.Second) // a record from the past
			}
			ops = append(ops, refOp{kind: opFeed, rec: logs.Record{Time: at, EventID: int(b >> 4 & 3), Location: node}})
		}
		compareWithMapReference(t, rig, t0, ops)
	})
}

// fuzzModel is a four-event hybrid model: a noise and a periodic signal
// with online filters, two silent ones, and the pair chain 1 → 2.
func fuzzModel() *correlate.Model {
	m := pairModel()
	m.TrainStart = t0.Add(-30 * time.Second)
	m.Profiles = map[int]sig.Profile{
		0: {Class: sig.Noise},
		1: {Class: sig.Silent},
		2: {Class: sig.Silent},
		3: {Class: sig.Periodic, Period: 3, Baseline: []float64{0, 1, 2}},
	}
	m.Thresholds = map[int]float64{0: 0.5, 1: 0.5, 2: 0.5, 3: 0.75}
	m.Severity[0], m.Severity[3] = logs.Info, logs.Info
	return m
}
