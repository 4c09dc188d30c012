package logs_test

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/logs"
)

// refSortByTime is SortByTime as it was before the run merge, frozen as
// the reference: a stable sort on Time.Before.
func refSortByTime(recs []logs.Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
}

var sortStart = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

// multiSource regroups a time-sorted log into one stream per key, in
// order of each key's first record, and concatenates the streams: k
// sorted sources whose times interleave, the shape a collected log has.
func multiSource(recs []logs.Record, key func(logs.Record) string) []logs.Record {
	var order []string
	streams := make(map[string][]logs.Record)
	for _, r := range recs {
		k := key(r)
		if _, ok := streams[k]; !ok {
			order = append(order, k)
		}
		streams[k] = append(streams[k], r)
	}
	out := make([]logs.Record, 0, len(recs))
	for _, k := range order {
		out = append(out, streams[k]...)
	}
	return out
}

func reversed(recs []logs.Record) []logs.Record {
	out := make([]logs.Record, len(recs))
	for i, r := range recs {
		out[len(recs)-1-i] = r
	}
	return out
}

func byComponent(r logs.Record) string { return r.Component }
func byLocation(r logs.Record) string  { return r.Location.String() }

// checkMatchesReference sorts a copy of in both ways and compares them
// record for record. Every record is first stamped with its input
// position, so two equal-time records that trade places are caught even
// when their other fields agree.
func checkMatchesReference(t *testing.T, name string, in []logs.Record) {
	t.Helper()
	got := make([]logs.Record, len(in))
	for i, r := range in {
		r.EventID = i
		got[i] = r
	}
	want := append([]logs.Record(nil), got...)
	refSortByTime(want)
	logs.SortByTime(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d is input %d at %v, reference has input %d at %v",
				name, i, got[i].EventID, got[i].Time, want[i].EventID, want[i].Time)
		}
	}
}

// TestSortByTimeMatchesFrozenReference pins the contract: SortByTime
// returns what the frozen stable sort returns whenever Time.Before is a
// strict weak order over the input (no mix of times with and without a
// monotonic reading). The inputs are multi-source days of both machine
// profiles, the same with times truncated to the minute so runs tie, and
// the shapes a merge gets wrong first: reversed, all equal, empty, one.
func TestSortByTimeMatchesFrozenReference(t *testing.T) {
	for name, prof := range map[string]gen.Profile{"bgl": gen.BlueGeneL(), "mercury": gen.Mercury()} {
		for seed := int64(1); seed <= 3; seed++ {
			day := gen.New(prof, seed).Generate(sortStart, 24*time.Hour).Records
			if len(day) == 0 {
				t.Fatalf("%s seed %d: generator produced no records", name, seed)
			}
			minute := make([]logs.Record, len(day))
			for i, r := range day {
				r.Time = r.Time.Truncate(time.Minute)
				minute[i] = r
			}
			for split, key := range map[string]func(logs.Record) string{"component": byComponent, "location": byLocation} {
				checkMatchesReference(t, name+"/"+split, multiSource(day, key))
				checkMatchesReference(t, name+"/"+split+"/minute", multiSource(minute, key))
			}
			checkMatchesReference(t, name+"/sorted", day)
			checkMatchesReference(t, name+"/reversed", reversed(day))
			checkMatchesReference(t, name+"/reversed-minute", reversed(minute))
		}
	}
	same := make([]logs.Record, 1000)
	for i := range same {
		same[i].Time = sortStart
	}
	checkMatchesReference(t, "all-equal", same)
	checkMatchesReference(t, "empty", nil)
	checkMatchesReference(t, "one", same[:1])
}

// FuzzSortByTime checks SortByTime against the frozen reference on
// byte-derived times: each byte is one record at second b>>5 and
// nanosecond b&3, so the input is full of ties, short runs and repeats.
func FuzzSortByTime(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7})
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{255, 200, 100, 50, 0})
	f.Add([]byte{32, 32, 0, 0, 64, 32, 0, 96, 96, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := make([]logs.Record, len(data))
		for i, b := range data {
			recs[i].Time = sortStart.Add(time.Duration(b>>5)*time.Second + time.Duration(b&3))
		}
		checkMatchesReference(t, "fuzz", recs)
	})
}

// bglMultiSource is a generated BG/L day regrouped into one stream per
// location: the run-merge's working shape, about as costly for the frozen
// sort as the generator's own emission order.
func bglMultiSource(tb testing.TB) []logs.Record {
	tb.Helper()
	day := gen.New(gen.BlueGeneL(), 1).Generate(sortStart, 24*time.Hour).Records
	if len(day) == 0 {
		tb.Fatal("generator produced no records")
	}
	return multiSource(day, byLocation)
}

// TestSortByTimeAllocs is the deterministic gate on the merge's scratch:
// nothing at all for sorted input, and for a multi-run input only the
// index slice and O(k) run bookkeeping — under 16 bytes a record, so never
// a second []Record.
func TestSortByTimeAllocs(t *testing.T) {
	src := bglMultiSource(t)
	work := make([]logs.Record, len(src))
	copy(work, src)
	logs.SortByTime(work)
	if n := testing.AllocsPerRun(5, func() { logs.SortByTime(work) }); n != 0 {
		t.Errorf("sorted input: %v allocations, want 0", n)
	}

	if n := testing.AllocsPerRun(5, func() {
		copy(work, src)
		logs.SortByTime(work)
	}); n > 3 {
		t.Errorf("multi-run input: %v allocations, want at most 3 (indices, run ends, heap)", n)
	}
	copy(work, src)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	logs.SortByTime(work)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	limit := uint64(16 * len(src))
	if bytes >= limit {
		t.Errorf("multi-run input of %d records allocated %d B, want < %d", len(src), bytes, limit)
	}
}

// BenchmarkSortByTime times one sort of a BG/L day: multi-source (one
// stream per location, concatenated) and already sorted.
func BenchmarkSortByTime(b *testing.B) {
	src := bglMultiSource(b)
	sorted := append([]logs.Record(nil), src...)
	logs.SortByTime(sorted)
	b.Run("multi-source-day", func(b *testing.B) {
		work := make([]logs.Record, len(src))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(work, src)
			b.StartTimer()
			logs.SortByTime(work)
		}
	})
	b.Run("sorted-day", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			logs.SortByTime(sorted)
		}
	})
}
