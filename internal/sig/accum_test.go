package sig

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// feedTrains replays a batch spike-train set through an accumulator tick
// by tick, the way the pipeline tap would.
func feedTrains(ac *Accumulator, trains SpikeTrains) {
	last := -1
	for _, tr := range trains {
		if len(tr) > 0 && tr[len(tr)-1] > last {
			last = tr[len(tr)-1]
		}
	}
	ids := make([]int, 0, len(trains))
	for id := range trains {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var outliers []int
	for t := 0; t <= last; t++ {
		outliers = outliers[:0]
		for _, id := range ids {
			tr := trains[id]
			if i := sort.SearchInts(tr, t); i < len(tr) && tr[i] == t {
				outliers = append(outliers, id)
			}
		}
		ac.ObserveTick(t, Counts{}, outliers)
	}
}

// batchCounts runs the frozen batch exact sweep over the same trains and
// returns the per-ordered-pair counts keyed by real event ids.
func batchCounts(trains SpikeTrains, maxLag int) map[[2]int]int {
	ids := make([]int, 0, len(trains))
	for id := range trains {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	tl := mergeTimeline(trains, ids)
	counts := newPairCounter(len(ids))
	exactSweep(tl, maxLag, counts)
	out := make(map[[2]int]int)
	for ai := range ids {
		for bi := range ids {
			if ai == bi {
				continue
			}
			if n := int(counts.get(int32(ai), int32(bi))); n > 0 {
				out[[2]int{ids[ai], ids[bi]}] = n
			}
		}
	}
	return out
}

func accumCounts(ac *Accumulator) map[[2]int]int {
	out := make(map[[2]int]int)
	for k, v := range ac.State().Counts {
		out[[2]int{int(k >> 32), int(uint32(k))}] = int(v)
	}
	return out
}

// TestAccumulatorMatchesBatchSweep: the windowed counter driven a tick at
// a time must reproduce the frozen batch exactSweep counters bit for bit on
// randomized trains, including simultaneous-spike double counting.
func TestAccumulatorMatchesBatchSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	for trial := 0; trial < 40; trial++ {
		maxLag := []int{0, 1, 5, 17, 60}[trial%5]
		trains := randomTrains(rng, trainDensity(trial%3))
		if len(trains) < 2 {
			continue
		}
		ac := NewAccumulator(AccumConfig{MaxLag: maxLag, MinCount: 1})
		feedTrains(ac, trains)
		want := batchCounts(trains, maxLag)
		if got := accumCounts(ac); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (maxLag=%d): incremental counters diverge\n got=%v\nwant=%v",
				trial, maxLag, got, want)
		}
		for id, tr := range trains {
			if !reflect.DeepEqual(ac.Trains()[id], tr) {
				t.Fatalf("trial %d: train %d diverges", trial, id)
			}
		}
	}
}

// TestAccumulatorDirtyDrain: DrainDirty returns exactly the candidates
// whose counters changed since the previous drain, and clears them.
func TestAccumulatorDirtyDrain(t *testing.T) {
	ac := NewAccumulator(AccumConfig{MaxLag: 5, MinCount: 2})
	// Events 1 and 2 co-occur on ticks 0..3 (1 then 2, lag 1).
	for tick := 0; tick < 8; tick += 2 {
		ac.ObserveTick(tick, Counts{}, []int{1})
		ac.ObserveTick(tick+1, Counts{}, []int{2})
	}
	first := ac.DrainDirty()
	if len(first) != 2 { // (1,2) and (2,1): lag 1 and lag 5 both within MaxLag
		t.Fatalf("first drain = %v, want both orders of the co-occurring pair", first)
	}
	if again := ac.DrainDirty(); len(again) != 0 {
		t.Fatalf("second drain without new data = %v, want empty", again)
	}
	// New co-occurrences re-dirty the pair.
	ac.ObserveTick(20, Counts{}, []int{1})
	ac.ObserveTick(21, Counts{}, []int{2})
	delta := ac.DrainDirty()
	if len(delta) == 0 {
		t.Fatal("drain after new co-occurrences is empty")
	}
	for _, c := range delta {
		if c.A != 1 && c.A != 2 {
			t.Fatalf("unexpected dirty pair %+v", c)
		}
	}
}

// TestAccumulatorQuietDrainIsEmpty: however much co-occurrence mass the
// stream has carried, a pair is dirty only because a spike moved it — a
// drain after ticks that brought records but no spike returns nothing, and
// Candidates leaves the dirty set alone. (The bucket regime the accumulator
// used to degrade into re-dirtied every active pair on every drain.)
func TestAccumulatorQuietDrainIsEmpty(t *testing.T) {
	ac := NewAccumulator(AccumConfig{MaxLag: 30, MinCount: 1})
	tick := 0
	for ; tick < 3000; tick++ { // 40 events a tick, 30 ticks deep: ~1.4e8 spike pairs
		ac.ObserveTick(tick, Counts{}, seq(tick%7, tick%7+40))
	}
	if len(ac.DrainDirty()) == 0 {
		t.Fatal("the busy stream dirtied nothing")
	}
	for round := 0; round < 3; round++ {
		for end := tick + 50; tick < end; tick++ {
			ac.ObserveTick(tick, countsOf(map[int]int{3: 2}), nil)
		}
		if len(ac.Candidates()) == 0 {
			t.Fatal("the busy stream left no candidates")
		}
		if d := ac.DrainDirty(); len(d) != 0 {
			t.Fatalf("round %d: drain with no new spike returned %d pairs, want none", round, len(d))
		}
	}
	ac.ObserveTick(tick, Counts{}, []int{1, 2})
	if d := ac.DrainDirty(); len(d) != 2 {
		t.Fatalf("drain after one simultaneous pair = %v, want both orders", d)
	}
}

// TestAccumulatorBelowThresholdStaysDirtyAcrossCrossing: a pair cleared
// from the dirty set while below MinCount must re-surface when a later
// increment pushes it across the threshold.
func TestAccumulatorBelowThresholdStaysDirtyAcrossCrossing(t *testing.T) {
	ac := NewAccumulator(AccumConfig{MaxLag: 3, MinCount: 2})
	ac.ObserveTick(0, Counts{}, []int{1})
	ac.ObserveTick(1, Counts{}, []int{2})
	if d := ac.DrainDirty(); len(d) != 0 {
		t.Fatalf("pair below MinCount drained as candidate: %v", d)
	}
	ac.ObserveTick(10, Counts{}, []int{1})
	ac.ObserveTick(11, Counts{}, []int{2})
	d := ac.DrainDirty()
	if len(d) != 1 || d[0].A != 1 || d[0].B != 2 || d[0].Count != 2 {
		t.Fatalf("threshold crossing not re-surfaced: %v", d)
	}
}

// TestAccumulatorRateStats checks the per-event statistics tap.
func TestAccumulatorRateStats(t *testing.T) {
	ac := NewAccumulator(DefaultAccumConfig())
	ac.ObserveTick(0, countsOf(map[int]int{7: 3, 9: 1}), []int{7})
	ac.ObserveTick(1, countsOf(map[int]int{7: 2}), nil)
	ac.NoteSeverity(7, 3)
	ac.NoteSeverity(7, 1) // lower severity must not regress the max
	st := ac.EventStats()
	if es := st[7]; es.Count != 5 || es.Spikes != 1 || es.LastTick != 1 || es.MaxSeverity != 3 {
		t.Fatalf("event 7 stats = %+v", es)
	}
	if es := st[9]; es.Count != 1 || es.Spikes != 0 {
		t.Fatalf("event 9 stats = %+v", es)
	}
	if ac.Ticks() != 2 || ac.LastTick() != 1 || ac.Events() != 1 {
		t.Fatalf("counters: ticks=%d last=%d events=%d", ac.Ticks(), ac.LastTick(), ac.Events())
	}
}

// TestAccumulatorHorizonTrim: trains are trimmed to the cap while the
// lifetime counters keep their totals.
func TestAccumulatorHorizonTrim(t *testing.T) {
	ac := NewAccumulator(AccumConfig{MaxLag: 2, MinCount: 1, HorizonCap: 50})
	for tick := 0; tick < 500; tick += 2 {
		ac.ObserveTick(tick, Counts{}, []int{1})
		ac.ObserveTick(tick+1, Counts{}, []int{2})
	}
	tr := ac.Trains()[1]
	if len(tr) == 0 || tr[0] < ac.LastTick()-50-13 {
		t.Fatalf("train not trimmed: first=%d last tick=%d", tr[0], ac.LastTick())
	}
	if n := ac.PairCount(1, 2); n != 250 {
		t.Fatalf("lifetime counter trimmed too: %d, want 250", n)
	}
}

// TestAccumulatorResumeAfterTrimMatchesUninterrupted: a snapshot taken
// after the first horizon trim carries the trim cursor, so the restored
// accumulator trims on the ticks the uninterrupted one does and their
// snapshots stay byte-identical — between trims the trains still hold
// spikes older than the cap, so a cursor restarted at the snapshot tick
// would show in the very next State.
func TestAccumulatorResumeAfterTrimMatchesUninterrupted(t *testing.T) {
	cfg := AccumConfig{MaxLag: 3, MinCount: 1, HorizonCap: 40}
	feed := func(ac *Accumulator, tick int) {
		ac.ObserveTick(tick, countsOf(map[int]int{1 + tick%3: 1}), []int{1 + tick%3})
	}
	whole := NewAccumulator(cfg)
	for tick := 0; tick < 57; tick++ { // trims at 11, 22, ..., 55; killed between two
		feed(whole, tick)
	}
	var st AccumState
	if err := json.Unmarshal(stateJSON(t, whole), &st); err != nil {
		t.Fatal(err)
	}
	if st.LastTrim != 55 {
		t.Fatalf("snapshot trim cursor = %d, want 55", st.LastTrim)
	}
	resumed, err := RestoreAccumulator(cfg, &st)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 57; tick < 140; tick++ {
		feed(whole, tick)
		feed(resumed, tick)
		sameState(t, resumed, whole, fmt.Sprintf("tick %d", tick))
	}
}

// TestAccumulatorStateRoundTrip: State/Restore must reproduce the
// accumulator exactly — continuing both from the same point yields
// identical counters and identical snapshots — and the JSON encoding of
// equal states must be byte-identical (the kill/resume contract).
func TestAccumulatorStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trains := randomTrains(rng, burstyTrains)
	cfg := AccumConfig{MaxLag: 9, MinCount: 2}
	ac := NewAccumulator(cfg)
	feedTrains(ac, trains)

	st := ac.State()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded AccumState
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreAccumulator(cfg, &decoded)
	if err != nil {
		t.Fatal(err)
	}

	// Continue both with the same extra ticks.
	base := ac.LastTick() + 3
	for i := 0; i < 30; i++ {
		out := []int{1 + i%3, 4}
		ac.ObserveTick(base+i, countsOf(map[int]int{4: 2}), out)
		restored.ObserveTick(base+i, countsOf(map[int]int{4: 2}), out)
	}
	if !reflect.DeepEqual(accumCounts(ac), accumCounts(restored)) {
		t.Fatal("counters diverge after resume")
	}
	if !reflect.DeepEqual(ac.Candidates(), restored.Candidates()) {
		t.Fatal("candidates diverge after resume")
	}
	b1, _ := json.Marshal(ac.State())
	b2, _ := json.Marshal(restored.State())
	if !bytes.Equal(b1, b2) {
		t.Fatal("post-resume snapshots not byte-identical")
	}
}

// TestRestoreAccumulatorRejectsWindowMismatch pins the MaxLag guard.
func TestRestoreAccumulatorRejectsWindowMismatch(t *testing.T) {
	ac := NewAccumulator(AccumConfig{MaxLag: 10, MinCount: 1})
	ac.ObserveTick(0, Counts{}, []int{1})
	st := ac.State()
	if _, err := RestoreAccumulator(AccumConfig{MaxLag: 20, MinCount: 1}, st); err == nil {
		t.Fatal("restore across MaxLag mismatch succeeded")
	}
	if _, err := RestoreAccumulator(AccumConfig{MaxLag: 10, MinCount: 1}, nil); err == nil {
		t.Fatal("restore from nil state succeeded")
	}
}

// TestPairTelemetryDedupesAcrossRounds pins the refresh-telemetry fix: a
// pair pruned by the prefilter in round one and kernel-scored in round
// two must move from Pruned to Scored, not count in both. The naive
// per-round sum double-counts it; the lifecycle sets must not.
func TestPairTelemetryDedupesAcrossRounds(t *testing.T) {
	tel := NewPairTelemetry()

	// Round 1: universe of 3 events; pair (1,2) scored and kept, pair
	// (1,3) pruned by the prefilter (never scored).
	tel.BeginRound(3)
	tel.NoteScored(1, 2)
	tel.NoteKept(1, 2, true)
	r1 := tel.Stats()
	if r1.Scored != 1 || r1.Kept != 1 || r1.Pruned() != r1.Candidates-1 {
		t.Fatalf("round 1 stats = %+v", r1)
	}

	// Round 2: (1,3)'s counter crossed MinCount, the kernel runs it and
	// keeps it; (1,2) re-scores and is dropped this time.
	tel.BeginRound(3)
	tel.NoteScored(1, 3)
	tel.NoteKept(1, 3, true)
	tel.NoteScored(1, 2)
	tel.NoteKept(1, 2, false)
	got := tel.Stats()

	want := PairStats{Events: 3, Candidates: 6, Scored: 2, Kept: 1}
	if got != want {
		t.Fatalf("deduped stats = %+v, want %+v", got, want)
	}
	// The regression: summing the two rounds' independent stats would
	// report (1,3) once as pruned and once as scored, and (1,2) scored
	// twice. The invariant Scored + Pruned == Candidates must hold on
	// the cumulative view.
	if got.Scored+got.Pruned() != got.Candidates {
		t.Fatalf("lifecycle buckets overlap: scored=%d pruned=%d candidates=%d",
			got.Scored, got.Pruned(), got.Candidates)
	}

	// Round-trip the state for the resume path.
	restored := RestorePairTelemetry(tel.State())
	if restored.Stats() != got {
		t.Fatalf("telemetry state round-trip diverged: %+v vs %+v", restored.Stats(), got)
	}
}

// accumKernel is the surface the equivalence tests drive on both the live
// accumulator and the frozen reference.
type accumKernel interface {
	ObserveTick(tick int, counts Counts, outliers []int)
	NoteSeverity(id, sev int)
	State() *AccumState
	Candidates() []PairCand
	DrainDirty() []PairCand
}

func stateJSON(t testing.TB, ac accumKernel) []byte {
	t.Helper()
	b, err := json.Marshal(ac.State())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameState fails unless the live kernel's snapshot equals the frozen
// one's byte for byte: counters, dirty set, ring, trains and event
// statistics all ride in it.
func sameState(t testing.TB, got, want accumKernel, at string) {
	t.Helper()
	if g, w := stateJSON(t, got), stateJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("%s: state diverges from the frozen kernel\n got=%s\nwant=%s", at, g, w)
	}
}

// accumStream describes one randomized tick stream of the equivalence
// property.
type accumStream struct {
	name     string
	cfg      AccumConfig
	ids      []int   // event universe
	p        float64 // chance an event spikes on a tick
	gapEvery int     // > 0: every so many ticks, jump further than MaxLag
	messy    bool    // shuffle each hit set and repeat ids inside it
	lateIDs  []int   // join the universe a third of the way in (table growth under live dirty bits)
}

var accumStreams = []accumStream{
	{name: "sparse", cfg: AccumConfig{MaxLag: 17, MinCount: 2}, ids: seq(0, 12), p: 0.05},
	{name: "simultaneous", cfg: AccumConfig{MaxLag: 3, MinCount: 1}, ids: seq(0, 6), p: 0.5},
	{name: "zero-lag", cfg: AccumConfig{MaxLag: 0, MinCount: 1}, ids: seq(0, 6), p: 0.4},
	{name: "duplicates", cfg: AccumConfig{MaxLag: 9, MinCount: 2}, ids: seq(0, 9), p: 0.2, messy: true},
	{name: "gaps", cfg: AccumConfig{MaxLag: 6, MinCount: 1}, ids: seq(0, 8), p: 0.3, gapEvery: 23},
	{name: "horizon", cfg: AccumConfig{MaxLag: 8, MinCount: 2, HorizonCap: 40}, ids: seq(0, 8), p: 0.2},
	{name: "growth", cfg: AccumConfig{MaxLag: 11, MinCount: 1}, ids: seq(0, 5), p: 0.3,
		lateIDs: []int{63, 64, 70, 130, 300, 1100}},
	{name: "straddle", cfg: AccumConfig{MaxLag: 7, MinCount: 1}, p: 0.25,
		ids: []int{-3, 0, 5, denseCounterMax - 1, denseCounterMax, denseCounterMax + 1, 5000, 1 << 31, 1<<31 + 7}},
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestAccumulatorMatchesFrozenKernel is the replace-not-fork proof: on
// randomized streams the windowed-count kernel and the frozen ring sweep
// agree on the snapshot bytes after every tick, on every DrainDirty and
// Candidates result, and when the live side is killed and restored from
// its own snapshot in the middle of a window.
func TestAccumulatorMatchesFrozenKernel(t *testing.T) {
	for si, sc := range accumStreams {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(900 + si)))
			var live accumKernel = NewAccumulator(sc.cfg)
			frozen := newRefAccum(sc.cfg)
			ids := append([]int(nil), sc.ids...)
			const ticks = 400
			tick := 0
			for i := 0; i < ticks; i++ {
				tick++
				if sc.gapEvery > 0 && i%sc.gapEvery == sc.gapEvery-1 {
					tick += sc.cfg.MaxLag + 1 + rng.Intn(3)
				}
				if i == ticks/3 {
					ids = append(ids, sc.lateIDs...)
				}
				var hits []int
				counts := make(map[int]int)
				for _, id := range ids {
					if rng.Float64() < sc.p {
						hits = append(hits, id)
						counts[id] = 1 + rng.Intn(4)
					}
				}
				if sc.messy && len(hits) > 0 {
					hits = append(hits, hits[rng.Intn(len(hits))], hits[0])
					rng.Shuffle(len(hits), func(a, b int) { hits[a], hits[b] = hits[b], hits[a] })
				}
				for id := range counts {
					sev := rng.Intn(5)
					live.NoteSeverity(id, sev)
					frozen.NoteSeverity(id, sev)
				}
				live.ObserveTick(tick, countsOf(counts), hits)
				frozen.ObserveTick(tick, countsOf(counts), hits)
				at := fmt.Sprintf("tick %d (#%d)", tick, i)
				sameState(t, live, frozen, at)

				switch rng.Intn(12) {
				case 0:
					if g, w := live.DrainDirty(), frozen.DrainDirty(); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s: DrainDirty diverges\n got=%v\nwant=%v", at, g, w)
					}
					sameState(t, live, frozen, at+" after drain")
				case 1:
					if g, w := live.Candidates(), frozen.Candidates(); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s: Candidates diverge\n got=%v\nwant=%v", at, g, w)
					}
					sameState(t, live, frozen, at+" after candidates")
				case 2:
					// Kill and resume the live side only, through the wire form.
					var st AccumState
					if err := json.Unmarshal(stateJSON(t, live), &st); err != nil {
						t.Fatal(err)
					}
					restored, err := RestoreAccumulator(sc.cfg, &st)
					if err != nil {
						t.Fatalf("%s: restore: %v", at, err)
					}
					live = restored
					sameState(t, live, frozen, at+" after restore")
				}
			}
		})
	}
}

// TestAccumulatorSaturatesLikeFrozenKernel: a pair a few counts below
// counterCap takes one windowed update of n > 1 where the ring sweep took n
// updates of 1; both must stop exactly at the cap, dirty once, and then
// stay clean.
func TestAccumulatorSaturatesLikeFrozenKernel(t *testing.T) {
	cfg := AccumConfig{MaxLag: 10, MinCount: 1}
	seed := &AccumState{
		MaxLag: 10, LastTick: 3, TickSeen: 4,
		Trains: map[int][]int{1: {1, 2, 3}},
		Counts: map[uint64]int32{refPairKey(1, 2): counterCap - 2, refPairKey(2, 1): counterCap},
		Ring:   []accSpike{{T: 1, E: 1}, {T: 2, E: 1}, {T: 3, E: 1}},
		Events: map[int]EventStat{1: {Spikes: 3, LastTick: -1}},
	}
	live, err := RestoreAccumulator(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := restoreRefAccum(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, live, frozen, "seeded")
	for i, hits := range [][]int{{2}, {2}, {1, 2}} {
		live.ObserveTick(4+i, Counts{}, hits)
		frozen.ObserveTick(4+i, Counts{}, hits)
		at := fmt.Sprintf("spike %d", i)
		sameState(t, live, frozen, at)
		if n := live.PairCount(1, 2); n != counterCap {
			t.Fatalf("%s: pair (1,2) = %d, want the cap %d", at, n, counterCap)
		}
		if g, w := live.DrainDirty(), frozen.DrainDirty(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: DrainDirty diverges\n got=%v\nwant=%v", at, g, w)
		}
	}
}

// TestObserveTickWarmZeroAlloc: once every event id has been seen, closing
// a tick allocates nothing — the counter table, the event slots, the ring
// and the live lists are all in place (spike trains and the ring grow
// amortised, which AllocsPerRun's integer average rounds away).
func TestObserveTickWarmZeroAlloc(t *testing.T) {
	ac := NewAccumulator(DefaultAccumConfig())
	counts := make(map[int]int)
	hitSets := make([][]int, 97)
	for i := range hitSets {
		for j := 0; j < 7; j++ {
			hitSets[i] = append(hitSets[i], (i*31+j*29)%200)
		}
		sort.Ints(hitSets[i])
		counts[hitSets[i][0]] = 3
	}
	tickCounts := countsOf(counts)
	tick := 0
	observe := func() {
		ac.NoteSeverity(tick%200, 2)
		ac.ObserveTick(tick, tickCounts, hitSets[tick%len(hitSets)])
		tick++
	}
	for tick < 20000 {
		observe()
	}
	if n := testing.AllocsPerRun(2000, observe); n != 0 {
		t.Fatalf("warm ObserveTick allocates %v times per tick, want 0", n)
	}
}

// TestRestoreAccumulatorRejectsForgedState: a snapshot is hostile input.
// Whatever State could not have written is an error, and ids no table can
// hold take the map paths instead of an index or a giant allocation.
func TestRestoreAccumulatorRejectsForgedState(t *testing.T) {
	cfg := AccumConfig{MaxLag: 10, MinCount: 1}
	base := func() *AccumState {
		return &AccumState{
			MaxLag: 10, LastTick: 9, TickSeen: 10,
			Trains: map[int][]int{1: {8}, 2: {9}},
			Counts: map[uint64]int32{refPairKey(1, 2): 1},
			Dirty:  []uint64{refPairKey(1, 2)},
			Ring:   []accSpike{{T: 8, E: 1}, {T: 9, E: 2}},
		}
	}
	if _, err := RestoreAccumulator(cfg, base()); err != nil {
		t.Fatalf("well-formed state rejected: %v", err)
	}
	for name, forge := range map[string]func(*AccumState){
		"negative tick count":  func(st *AccumState) { st.TickSeen = -4 },
		"unsorted ring":        func(st *AccumState) { st.Ring[0].T, st.Ring[1].T = 9, 8 },
		"ring newer than tick": func(st *AccumState) { st.Ring[1].T = 10 },
		"zero count":           func(st *AccumState) { st.Counts[refPairKey(3, 4)] = 0 },
		"negative count":       func(st *AccumState) { st.Counts[refPairKey(3, 4)] = -7 },
		"count past the cap":   func(st *AccumState) { st.Counts[refPairKey(3, 4)] = counterCap + 1 },
		"dirty without count":  func(st *AccumState) { st.Dirty = append(st.Dirty, refPairKey(5, 6)) },
		"negative trim cursor": func(st *AccumState) { st.LastTrim = -1 },
		"trim cursor ahead":    func(st *AccumState) { st.LastTrim = 10 },
	} {
		st := base()
		forge(st)
		if _, err := RestoreAccumulator(cfg, st); err == nil {
			t.Errorf("%s: forged state restored without error", name)
		}
	}

	// Ids outside every table: negative, at 2^31, at the top of uint32.
	st := base()
	wild := []int{-1, 1 << 31, 1<<32 - 1, denseCounterMax}
	for i, id := range wild {
		k := refPairKey(id, 1)
		st.Counts[k] = int32(i + 1)
		st.Dirty = append(st.Dirty, k)
		st.Trains[id] = []int{9}
		st.Ring = append(st.Ring, accSpike{T: 9, E: id})
	}
	sort.Slice(st.Dirty, func(i, j int) bool { return st.Dirty[i] < st.Dirty[j] })
	ac, err := RestoreAccumulator(cfg, st)
	if err != nil {
		t.Fatalf("wild ids rejected: %v", err)
	}
	if n := len(ac.pairs.dense); n > 64*64 {
		t.Fatalf("wild ids grew the flat table to %d cells", n)
	}
	ac.ObserveTick(10, countsOf(map[int]int{-1: 1}), []int{-1, 3, 1 << 31})
	again, err := RestoreAccumulator(cfg, ac.State())
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, again, ac, "wild ids round trip")
}

// FuzzIncrementalCounters feeds arbitrary spike layouts — including the
// permutations and duplications the ingest dedup ring admits, which all
// collapse to the same per-tick outlier sets — through the streaming
// accumulator and asserts its counters equal the frozen batch exactSweep
// over the identical merged timeline, and that its snapshot equals the
// frozen ring-sweep kernel's after every tick and every drain.
func FuzzIncrementalCounters(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 3, 0, 0, 1, 1, 2, 0, 3, 7, 4, 1}, uint8(6))
	f.Add([]byte{1, 0, 2, 0, 3, 0, 4, 0, 0, 0}, uint8(0))
	f.Add([]byte{0, 7, 1, 7, 0, 7, 1, 7, 0, 7, 1, 7}, uint8(31))
	f.Add([]byte{}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, lagB uint8) {
		trains, ids := fuzzTrains(data)
		if len(ids) < 2 {
			return
		}
		maxLag := int(lagB % 32)
		ac := NewAccumulator(AccumConfig{MaxLag: maxLag, MinCount: 1})
		feedTrains(ac, trains)
		want := batchCounts(trains, maxLag)
		if got := accumCounts(ac); !reflect.DeepEqual(got, want) {
			t.Fatalf("incremental counters diverge from batch exactSweep\n got=%v\nwant=%v", got, want)
		}

		// The top bits of the lag byte pick the emission threshold.
		cfg := AccumConfig{MaxLag: maxLag, MinCount: 1 + int(lagB>>5)}
		live, frozen := NewAccumulator(cfg), newRefAccum(cfg)
		last := 0
		for _, tr := range trains {
			last = max(last, tr[len(tr)-1])
		}
		for tick := 0; tick <= last; tick++ {
			var hits []int
			for _, id := range ids {
				if i := sort.SearchInts(trains[id], tick); i < len(trains[id]) && trains[id][i] == tick {
					hits = append(hits, id)
				}
			}
			live.ObserveTick(tick, Counts{}, hits)
			frozen.ObserveTick(tick, Counts{}, hits)
			sameState(t, live, frozen, fmt.Sprintf("tick %d", tick))
			if tick%5 == 4 {
				if g, w := live.DrainDirty(), frozen.DrainDirty(); !reflect.DeepEqual(g, w) {
					t.Fatalf("tick %d: DrainDirty diverges\n got=%v\nwant=%v", tick, g, w)
				}
			}
		}
	})
}

// FuzzRestoreAccumulator: RestoreAccumulator reads bytes it did not
// necessarily write. Arbitrary JSON must come back as an error or as an
// accumulator — never a panic, an out-of-range index or an allocation
// sized by a forged id — and an accepted state must be a fixed point:
// State of the restored accumulator restores to the same bytes, and the
// accumulator keeps working.
func FuzzRestoreAccumulator(f *testing.F) {
	ac := NewAccumulator(AccumConfig{MaxLag: 4, MinCount: 1})
	ac.ObserveTick(0, countsOf(map[int]int{1: 2}), []int{1, 2})
	ac.ObserveTick(2, Counts{}, []int{2, 2100})
	seed, _ := json.Marshal(ac.State())
	f.Add(seed)
	// A format version 3 state: the regime flag and the mass are no longer
	// fields, and decode as if absent.
	f.Add([]byte(`{"max_lag":4,"exact":true,"mass":3,"last_tick":2,"ticks":2,"counts":{"4294967298":1},"ring":[{"t":0,"e":1},{"t":2,"e":2}]}`))
	f.Add([]byte(`{"max_lag":4,"exact":false,"mass":9,"last_tick":7,"ticks":2,"prev_block":-1,"cur_block":1,"cur":{"1":1,"3":1}}`))
	f.Add([]byte(`{"max_lag":4,"counts":{"9223372036854775808":1,"18446744073709551615":5},"dirty":[18446744073709551615]}`))
	f.Add([]byte(`{"max_lag":4,"last_tick":3,"ring":[{"t":3,"e":-1},{"t":3,"e":2147483648}],"trains":{"-1":[3]}}`))
	f.Add([]byte(`{"max_lag":4,"ticks":-1}`))
	trimmed := NewAccumulator(AccumConfig{MaxLag: 4, MinCount: 1, HorizonCap: 8})
	for tick := 0; tick < 12; tick++ {
		trimmed.ObserveTick(tick, Counts{}, []int{1 + tick%2})
	}
	seed, _ = json.Marshal(trimmed.State()) // "last_trim":9
	f.Add(seed)
	f.Add([]byte(`{"max_lag":4,"last_tick":3,"last_trim":4}`))
	f.Add([]byte(`{"max_lag":4,"last_tick":3,"last_trim":-2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st AccumState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		cfg := AccumConfig{MaxLag: st.MaxLag, MinCount: 1, HorizonCap: 8}
		ac, err := RestoreAccumulator(cfg, &st)
		if err != nil {
			return
		}
		if n := len(ac.pairs.dense); n > denseCounterMax*denseCounterMax {
			t.Fatalf("flat table grew to %d cells", n)
		}
		first := stateJSON(t, ac)
		var back AccumState
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatal(err)
		}
		again, err := RestoreAccumulator(cfg, &back)
		if err != nil {
			t.Fatalf("state of a restored accumulator does not restore: %v", err)
		}
		if second := stateJSON(t, again); !bytes.Equal(first, second) {
			t.Fatalf("restore is not a fixed point\nfirst =%s\nsecond=%s", first, second)
		}
		// Both keep observing, identically, from wherever the state left off.
		for i, hits := range [][]int{{1, 2}, {2, -5, 1 << 31}, {1}} {
			tick := st.LastTick + 1 + i
			if tick < 0 || tick > 1<<40 {
				break
			}
			ac.ObserveTick(tick, countsOf(map[int]int{1: 1}), hits)
			again.ObserveTick(tick, countsOf(map[int]int{1: 1}), hits)
		}
		sameState(t, again, ac, "continued")
		ac.Candidates()
		ac.DrainDirty()
	})
}

// refAccum is the accumulator as it was before the windowed-count kernel,
// frozen: a ring of recent spikes that every new spike walks entry by
// entry, two map writes per entry. It is the reference the live kernel
// must equal byte for byte (TestAccumulatorMatchesFrozenKernel,
// FuzzIncrementalCounters) and is not to be optimised.
type refAccum struct {
	cfg AccumConfig

	trains SpikeTrains         // event id -> sorted outlier ticks
	counts map[uint64]int32    // ordered pair -> co-occurrence count
	dirty  map[uint64]struct{} // pairs whose count changed since the last drain
	events map[int]*EventStat

	ring []accSpike // spikes within MaxLag of the newest tick
	head int

	lastTick int
	ticks    int
	lastTrim int
}

// newRefAccum returns an empty accumulator.
func newRefAccum(cfg AccumConfig) *refAccum {
	if cfg.MaxLag < 0 {
		cfg.MaxLag = 0
	}
	if cfg.MinCount < 1 {
		cfg.MinCount = 1
	}
	return &refAccum{
		cfg:    cfg,
		trains: make(SpikeTrains),
		counts: make(map[uint64]int32),
		dirty:  make(map[uint64]struct{}),
		events: make(map[int]*EventStat),
	}
}

func refPairKey(a, b int) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// bump adds n co-occurrences to the ordered pair (a, b), clamped at the
// cap, and marks the pair dirty.
func (ac *refAccum) bump(a, b int, n int32) {
	k := refPairKey(a, b)
	v := ac.counts[k]
	if v >= counterCap {
		return
	}
	if v > counterCap-n {
		v = counterCap
	} else {
		v += n
	}
	ac.counts[k] = v
	ac.dirty[k] = struct{}{}
}

// stat returns the event's stat record, creating it on first sight.
func (ac *refAccum) stat(id int) *EventStat {
	es := ac.events[id]
	if es == nil {
		es = &EventStat{LastTick: -1}
		ac.events[id] = es
	}
	return es
}

// NoteSeverity records the severity of one record of the event (as an
// int; callers pass their severity enum's value). The per-event maximum
// feeds the refresh path's predictive-chain elimination.
func (ac *refAccum) NoteSeverity(id, sev int) {
	if es := ac.stat(id); sev > es.MaxSeverity {
		es.MaxSeverity = sev
	}
}

// ObserveTick folds one closed sampling tick into the statistics: counts
// is the tick's per-event record counts (rate statistics), outliers the
// tick's outlier event ids in ascending order (the pipeline's sorted hit
// set). Ticks must arrive in strictly increasing order; a stale tick is
// ignored.
func (ac *refAccum) ObserveTick(tick int, counts Counts, outliers []int) {
	if ac.ticks > 0 && tick <= ac.lastTick {
		return
	}
	ac.ticks++
	ac.lastTick = tick
	for _, c := range counts.All() {
		es := ac.stat(c.ID)
		es.Count += c.N
		es.LastTick = tick
	}
	if len(outliers) > 0 {
		// Drop ring entries that fell out of the co-occurrence window.
		for ac.head < len(ac.ring) && tick-ac.ring[ac.head].T > ac.cfg.MaxLag {
			ac.head++
		}
		if ac.head > 64 && ac.head*2 > len(ac.ring) {
			n := copy(ac.ring, ac.ring[ac.head:])
			ac.ring = ac.ring[:n]
			ac.head = 0
		}
	}
	for _, e := range outliers {
		tr := ac.trains[e]
		if len(tr) > 0 && tr[len(tr)-1] >= tick {
			continue // duplicate within the tick's hit set
		}
		ac.trains[e] = append(tr, tick)
		ac.stat(e).Spikes++
		ac.exactAdd(tick, e)
	}
	ac.maybeTrim()
}

// exactAdd pairs one new spike against every live ring entry, mirroring the
// frozen exactSweep over the merged timeline: ring entries precede the spike in
// (tick, event) order, same-event pairs are skipped, and a simultaneous
// pair also counts in the reverse order (the kernel's delay-0 bin sees
// it from both sides).
func (ac *refAccum) exactAdd(tick, e int) {
	for i := ac.head; i < len(ac.ring); i++ {
		r := ac.ring[i]
		if r.E == e {
			continue
		}
		ac.bump(r.E, e, 1)
		if r.T == tick {
			ac.bump(e, r.E, 1)
		}
	}
	ac.ring = append(ac.ring, accSpike{T: tick, E: e})
}

// maybeTrim drops spikes older than the horizon cap, amortised to one
// pass per quarter-cap of tick progress. Counters are lifetime totals
// and stay untouched.
func (ac *refAccum) maybeTrim() {
	hc := ac.cfg.HorizonCap
	if hc <= 0 || ac.lastTick-ac.lastTrim < hc/4+1 {
		return
	}
	ac.lastTrim = ac.lastTick
	cut := ac.lastTick - hc
	for id, tr := range ac.trains {
		i := sort.SearchInts(tr, cut+1)
		if i == 0 {
			continue
		}
		if i == len(tr) {
			delete(ac.trains, id)
			continue
		}
		ac.trains[id] = append(tr[:0], tr[i:]...)
	}
}

// Candidates returns every pair at or above MinCount, sorted by (A, B).
func (ac *refAccum) Candidates() []PairCand {
	return ac.emit(func(k uint64) bool { return true })
}

// DrainDirty returns the candidates whose count changed since the last
// drain, sorted by (A, B), and clears the dirty set. Pairs still below
// MinCount are dropped from the drain but re-dirty on their next
// increment, so crossing the threshold always re-surfaces them. This is
// the delta a refresh needs to re-score.
func (ac *refAccum) DrainDirty() []PairCand {
	out := ac.emit(func(k uint64) bool { _, d := ac.dirty[k]; return d })
	ac.dirty = make(map[uint64]struct{})
	return out
}

// emit collects eligible pairs >= MinCount in deterministic (A, B) order.
func (ac *refAccum) emit(eligible func(uint64) bool) []PairCand {
	need := int32(ac.cfg.MinCount)
	out := make([]PairCand, 0, len(ac.dirty))
	for k, v := range ac.counts {
		if v >= need && eligible(k) {
			out = append(out, PairCand{A: int(k >> 32), B: int(uint32(k)), Count: int(v)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// State snapshots the accumulator. The snapshot is a deep copy with the
// dirty set sorted, so identical accumulator states serialise to
// identical bytes.
func (ac *refAccum) State() *AccumState {
	st := &AccumState{
		MaxLag:   ac.cfg.MaxLag,
		LastTick: ac.lastTick,
		TickSeen: ac.ticks,
		LastTrim: ac.lastTrim,
	}
	if len(ac.trains) > 0 {
		st.Trains = make(map[int][]int, len(ac.trains))
		for id, tr := range ac.trains {
			st.Trains[id] = append([]int(nil), tr...)
		}
	}
	if len(ac.counts) > 0 {
		st.Counts = make(map[uint64]int32, len(ac.counts))
		for k, v := range ac.counts {
			st.Counts[k] = v
		}
	}
	if len(ac.dirty) > 0 {
		st.Dirty = make([]uint64, 0, len(ac.dirty))
		for k := range ac.dirty {
			st.Dirty = append(st.Dirty, k)
		}
		sort.Slice(st.Dirty, func(i, j int) bool { return st.Dirty[i] < st.Dirty[j] })
	}
	if len(ac.events) > 0 {
		st.Events = make(map[int]EventStat, len(ac.events))
		for id, es := range ac.events {
			st.Events[id] = *es
		}
	}
	if live := ac.ring[ac.head:]; len(live) > 0 {
		st.Ring = append([]accSpike(nil), live...)
	}
	return st
}

// restoreRefAccum rebuilds an accumulator from a snapshot. The
// configured window must match the snapshot's — counters accumulated
// under a different MaxLag would silently mean something else.
func restoreRefAccum(cfg AccumConfig, st *AccumState) (*refAccum, error) {
	if st == nil {
		return nil, fmt.Errorf("sig: nil accumulator state")
	}
	ac := newRefAccum(cfg)
	if st.MaxLag != ac.cfg.MaxLag {
		return nil, fmt.Errorf("sig: accumulator snapshot window MaxLag=%d, config wants %d",
			st.MaxLag, ac.cfg.MaxLag)
	}
	ac.lastTick = st.LastTick
	ac.ticks = st.TickSeen
	ac.lastTrim = st.LastTrim
	for id, tr := range st.Trains {
		if !sort.IntsAreSorted(tr) {
			return nil, fmt.Errorf("sig: accumulator snapshot train %d not sorted", id)
		}
		ac.trains[id] = append([]int(nil), tr...)
	}
	for k, v := range st.Counts {
		ac.counts[k] = v
	}
	for _, k := range st.Dirty {
		ac.dirty[k] = struct{}{}
	}
	for id, es := range st.Events {
		e := es
		ac.events[id] = &e
	}
	ac.ring = append([]accSpike(nil), st.Ring...)
	return ac, nil
}
