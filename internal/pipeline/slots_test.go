package pipeline

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// allocsOf runs fn once and returns the heap allocations and bytes it
// made.
func allocsOf(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// warmSession is a BG/L session with the accumulator armed, fed the first
// n records of the test stream; it returns the rest.
func warmSession(t testing.TB, n int) (*Session, []logs.Record) {
	t.Helper()
	rig, recs, cut := bglRig(t, 1<<30)
	s := rig.pipeline().NewSession(cut)
	for _, r := range recs[:n] {
		if _, err := s.Feed(r); err != nil {
			t.Fatal(err)
		}
	}
	return s, recs[n:]
}

// TestForwardJumpClosesInConstantMemory: one record stamped 200 days past
// the stream — inside the year the ingest contract accepts — closes its
// 1.7 million ticks one at a time through one recycled slot, so the call
// allocates a handful of times and grows the heap by nothing, where a
// tick of two fresh maps made millions of allocations and hundreds of
// MB. (That such a jump predicts what the frozen map sampler does is the
// jump-2-days case of TestSamplerMatchesMapReference.)
func TestForwardJumpClosesInConstantMemory(t *testing.T) {
	s, rest := warmSession(t, 4000)
	jump := rest[0]
	jump.Time = jump.Time.Add(200 * 24 * time.Hour)
	before := s.smp.next
	var err error
	mallocs, bytes := allocsOf(func() { _, err = s.Feed(jump) })
	if err != nil {
		t.Fatal(err)
	}
	if closed := s.smp.next - before; closed < 200*24*360-2 {
		t.Fatalf("the jump closed %d ticks, want ~%d", closed, 200*24*360)
	}
	if mallocs > 64 || bytes >= 1<<20 {
		t.Fatalf("closing 200 days of ticks made %d allocations, %d bytes; want <= 64 and < 1 MB", mallocs, bytes)
	}
	t.Logf("closed %d ticks: %d allocations, %d bytes", s.smp.next-before, mallocs, bytes)
}

// TestSessionFeedWarmZeroAlloc: once the session has seen the stream's
// ids, feeding a pre-stamped record allocates nothing — including the
// records that close ticks, filter them with hits and fold them into the
// accumulator — as long as no chain is spawned (a new chain instance is
// the one allocation a tick close may make).
func TestSessionFeedWarmZeroAlloc(t *testing.T) {
	rig, _, cut := bglRig(t, 0)
	starts := map[int]bool{}
	for _, c := range rig.model.Chains {
		starts[c.First()] = true
	}
	// Ids no chain starts with: every dense one that can fire, and ids
	// past the template set, which are sparse hits whenever counted.
	var ids []int
	for id := range rig.model.Profiles {
		if !starts[id] {
			ids = append(ids, id)
		}
	}
	ids = append(ids, 5000, 5001)
	node := topology.MustParse("R00-M0-N0-C:J02-U01")
	const perTick = 7
	recs := make([]logs.Record, 200000)
	for i := range recs {
		recs[i] = logs.Record{
			Time:     cut.Add(time.Duration(i) * rig.model.Step / perTick),
			EventID:  ids[(i*7+i/perTick)%len(ids)],
			Location: node,
		}
	}
	s := rig.pipeline().NewSession(cut)
	next := 0
	feed := func() {
		if _, err := s.Feed(recs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < len(recs)/2 {
		feed()
	}
	stages := s.Result().Stats.Stages
	if n := s.Result().Stats.Stages[stageFilter].Out; n == 0 || len(s.p.eng.State().Active) != 0 {
		t.Fatalf("warm-up made %d hits and left %d chain instances; the stream must hit and spawn nothing",
			n, len(s.p.eng.State().Active))
	}
	if n := testing.AllocsPerRun(20000, feed); n != 0 {
		t.Fatalf("warm Feed allocates %v times per record, want 0", n)
	}
	if s.Result().Stats.Stages[stageFilter].Out == stages[stageFilter].Out {
		t.Fatal("the measured records closed no tick with a hit")
	}
}

// TestFarEventIDIsSparseHitInO1: a pre-stamped id far past any template
// takes the tick's and accumulator's map paths — a few allocations, not
// a table 1<<40 long — and is still a sparse hit, an outlier on sight.
func TestFarEventIDIsSparseHitInO1(t *testing.T) {
	s, rest := warmSession(t, 4000)
	far := rest[0]
	far.EventID = 1 << 40
	mallocs, bytes := allocsOf(func() {
		feedOK(t, s, far)
		s.AdvanceTo(far.Time.Add(time.Minute))
	})
	if mallocs > 64 || bytes >= 64<<10 {
		t.Fatalf("an id of 1<<40 made %d allocations, %d bytes", mallocs, bytes)
	}
	t.Logf("an id of 1<<40: %d allocations, %d bytes", mallocs, bytes)
	tick := int(far.Time.Sub(s.smp.origin) / s.smp.step)
	if tr := s.p.accum.Trains()[1<<40]; len(tr) != 1 || tr[0] != tick {
		t.Fatalf("id 1<<40 spiked at ticks %v, want [%d]", tr, tick)
	}
}

// goldenModelSession builds the session the golden snapshot was taken
// from: the four-event model, records of dense, sparse, far and
// unstamped ids, two ticks left open — one of them holding only an
// unstamped record.
func goldenModelSession(t *testing.T) *Session {
	t.Helper()
	rig := refRig{model: fuzzModel(), cfg: Config{MaxBuffered: DefaultMaxBuffered, Accumulate: accumConfigFor()}}
	s := rig.pipeline().NewSession(t0)
	locs := []topology.Location{
		topology.MustParse("R00-M0-N0-C:J02-U01"),
		topology.MustParse("R01-M1-N2-C:J05-U11"),
		topology.System,
	}
	ids := []int{3, 1, 0, 10, 2, 1 << 40, 0, 3, 12, 2}
	for i := 0; i < 60; i++ {
		feedOK(t, s, logs.Record{
			Time:     t0.Add(time.Duration(i) * 3 * time.Second),
			EventID:  ids[i%len(ids)],
			Location: locs[i%len(locs)],
		})
	}
	feedOK(t, s, logs.Record{Time: t0.Add(185 * time.Second), EventID: -1, Location: locs[0]})
	return s
}

// TestSessionStateMatchesParentGolden: the snapshot of a session with
// open ticks is byte for byte what the map-tick sampler wrote
// (testdata/session_open_ticks.json, stage wall times zeroed), and those
// bytes resume to a session that snapshots them again.
func TestSessionStateMatchesParentGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/session_open_ticks.json")
	if err != nil {
		t.Fatal(err)
	}
	golden = bytes.TrimSpace(golden)
	s := goldenModelSession(t)
	st, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Open) != 2 {
		t.Fatalf("the golden session holds %d open ticks, want 2", len(st.Open))
	}
	if got := stableJSON(t, st); !bytes.Equal(got, golden) {
		t.Fatalf("session state\n%s\nwant\n%s", got, golden)
	}
	var back SessionState
	if err := json.Unmarshal(golden, &back); err != nil {
		t.Fatal(err)
	}
	rig := refRig{model: fuzzModel(), cfg: Config{MaxBuffered: DefaultMaxBuffered, Accumulate: accumConfigFor()}}
	resumed, err := rig.pipeline().ResumeSession(&back)
	if err != nil {
		t.Fatal(err)
	}
	again, err := resumed.State()
	if err != nil {
		t.Fatal(err)
	}
	if got := stableJSON(t, again); !bytes.Equal(got, golden) {
		t.Fatalf("resumed from the golden, the session snapshots\n%s\nwant\n%s", got, golden)
	}
}

// TestResumeRejectsForgedOpenTicks: an open tick Session.State could not
// have written — outside [NextTick, NextTick+DefaultGraceTicks], a count
// below 1 or of a negative id, a record total other than the counts'
// sum, a location without a count — or a cursor behind the ticks its
// high-water mark made due, is an error, never a resumed session.
func TestResumeRejectsForgedOpenTicks(t *testing.T) {
	s := goldenModelSession(t)
	st, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range forgedOpenTicks(t, blob) {
		var back SessionState
		err := json.Unmarshal(c.Blob, &back)
		if err == nil {
			rig := refRig{model: fuzzModel(), cfg: Config{MaxBuffered: DefaultMaxBuffered, Accumulate: accumConfigFor()}}
			_, err = rig.pipeline().ResumeSession(&back)
		}
		if err == nil {
			t.Errorf("%s: resumed", c.Name)
		} else if !strings.Contains(err.Error(), c.Want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.Name, err, c.Want)
		}
	}
}

// forgedBlob is a session snapshot with one forged field, and what the
// error refusing it must mention.
type forgedBlob struct {
	Name, Want string
	Blob       []byte
}

// forgedOpenTicks forges the open ticks and cursor of a SessionState
// blob holding a non-empty open tick, one forgery per blob.
func forgedOpenTicks(t testing.TB, blob []byte) []forgedBlob {
	t.Helper()
	forge := func(name, want string, mutate func(sess, open, tick map[string]any, key string, next int64)) forgedBlob {
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.UseNumber()
		var sess map[string]any
		if err := dec.Decode(&sess); err != nil {
			t.Fatal(err)
		}
		open, _ := sess["open"].(map[string]any)
		next, err := sess["next_tick"].(json.Number).Int64()
		if err != nil {
			t.Fatal(err)
		}
		// The open tick with the most counted events.
		key, most := "", -1
		for k, v := range open {
			if n := len(v.(map[string]any)["Counts"].(map[string]any)); n > most {
				key, most = k, n
			}
		}
		if most < 2 {
			t.Fatalf("the snapshot to forge holds no open tick with two events: %s", blob)
		}
		mutate(sess, open, open[key].(map[string]any), key, next)
		forged, err := json.Marshal(sess)
		if err != nil {
			t.Fatal(err)
		}
		return forgedBlob{Name: name, Want: want, Blob: forged}
	}
	firstID := func(tick map[string]any) string {
		for id := range tick["Counts"].(map[string]any) {
			return id
		}
		return ""
	}
	move := func(to func(next int64) int64) func(sess, open, tick map[string]any, key string, next int64) {
		return func(sess, open, tick map[string]any, key string, next int64) {
			delete(open, key)
			open[strconv.FormatInt(to(next), 10)] = tick
		}
	}
	return []forgedBlob{
		forge("open tick behind the cursor", "outside", move(func(next int64) int64 { return next - 1 })),
		forge("open tick past the grace", "outside", move(func(next int64) int64 { return next + DefaultGraceTicks + 1 })),
		forge("zero count", "records of event", func(_, _, tick map[string]any, _ string, _ int64) {
			tick["Counts"].(map[string]any)[firstID(tick)] = 0
		}),
		forge("negative id", "records of event -3", func(_, _, tick map[string]any, _ string, _ int64) {
			tick["Counts"].(map[string]any)["-3"] = 1
			tick["FirstLoc"].(map[string]any)["-3"] = "SYSTEM"
			n, _ := tick["N"].(json.Number).Int64()
			tick["N"] = n + 1
		}),
		forge("N above the counts", "holds", func(_, _, tick map[string]any, _ string, _ int64) {
			n, _ := tick["N"].(json.Number).Int64()
			tick["N"] = n + 1
		}),
		forge("N below the counts", "holds", func(_, _, tick map[string]any, _ string, _ int64) {
			n, _ := tick["N"].(json.Number).Int64()
			tick["N"] = n - 1
		}),
		forge("location without a count", "location for an event", func(_, _, tick map[string]any, _ string, _ int64) {
			tick["FirstLoc"].(map[string]any)["77"] = "SYSTEM"
		}),
		forge("count without a location", "no location", func(_, _, tick map[string]any, _ string, _ int64) {
			delete(tick["FirstLoc"].(map[string]any), firstID(tick))
		}),
		forge("negative cursor", "cursor", func(sess, _, _ map[string]any, _ string, _ int64) {
			sess["next_tick"] = -1
		}),
		forge("high-water mark past the cursor's grace", "cursor", func(sess, _, _ map[string]any, _ string, next int64) {
			origin, err := time.Parse(time.RFC3339Nano, sess["origin"].(string))
			if err != nil {
				t.Fatal(err)
			}
			step, _ := sess["step"].(json.Number).Int64()
			sess["high_water"] = origin.Add(time.Duration(next+DefaultGraceTicks+1) * time.Duration(step))
		}),
	}
}
