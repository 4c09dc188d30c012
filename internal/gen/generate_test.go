package gen

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/topology"
)

var t0 = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

func smallBGL(t *testing.T, dur time.Duration, seed int64) *Result {
	t.Helper()
	res := New(BlueGeneL(), seed).Generate(t0, dur)
	if len(res.Records) == 0 {
		t.Fatal("no records generated")
	}
	return res
}

func TestGenerateSortedAndInRange(t *testing.T) {
	res := smallBGL(t, 12*time.Hour, 1)
	prev := time.Time{}
	for i, r := range res.Records {
		if r.Time.Before(prev) {
			t.Fatalf("record %d out of order", i)
		}
		prev = r.Time
		if r.Time.Before(res.Start) || !r.Time.Before(res.End.Add(2*time.Second)) {
			// Burst jitter may push an event up to 2 s past its nominal
			// time; anything further is a bug.
			t.Fatalf("record %d outside range: %v", i, r.Time)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := New(BlueGeneL(), 7).Generate(t0, 6*time.Hour)
	b := New(BlueGeneL(), 7).Generate(t0, 6*time.Hour)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if len(a.Failures) != len(b.Failures) {
		t.Fatal("failure counts differ")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := New(BlueGeneL(), 1).Generate(t0, 6*time.Hour)
	b := New(BlueGeneL(), 2).Generate(t0, 6*time.Hour)
	if len(a.Records) == len(b.Records) {
		same := true
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical logs")
		}
	}
}

func TestFailuresHaveGroundTruth(t *testing.T) {
	res := smallBGL(t, 48*time.Hour, 3)
	if len(res.Failures) == 0 {
		t.Fatal("no failures in 48h")
	}
	for _, f := range res.Failures {
		if f.Time.Before(res.Start) || !f.Time.Before(res.End) {
			t.Errorf("failure time %v outside range", f.Time)
		}
		if f.Category == "" || f.Archetype == "" {
			t.Errorf("failure missing labels: %+v", f)
		}
		if len(f.Locations) == 0 {
			t.Errorf("failure without locations: %+v", f)
		}
	}
}

func TestInformationalSequencesAreNotFailures(t *testing.T) {
	res := smallBGL(t, 48*time.Hour, 4)
	for _, f := range res.Failures {
		if f.Archetype == "restart" || f.Archetype == "multiline" {
			t.Errorf("informational archetype recorded as failure: %+v", f)
		}
	}
	// But their messages must appear in the log.
	foundRestart := false
	for _, r := range res.Records {
		if strings.Contains(r.Message, "ciodb has been restarted") {
			foundRestart = true
			break
		}
	}
	if !foundRestart {
		t.Error("restart sequence messages missing from log")
	}
}

func TestMemoryFaultPropagatesWithinMidplane(t *testing.T) {
	res := smallBGL(t, 96*time.Hour, 5)
	checked := 0
	for _, f := range res.Failures {
		if f.Archetype != "memory" {
			continue
		}
		checked++
		mp := f.Origin.Truncate(topology.ScopeMidplane)
		for _, loc := range f.Locations {
			if !mp.Contains(loc) {
				t.Errorf("memory failure escaped midplane: origin %v, loc %v", f.Origin, loc)
			}
		}
		if len(f.Locations) < 1 {
			t.Error("memory failure without locations")
		}
	}
	if checked == 0 {
		t.Fatal("no memory failures in 96h")
	}
}

func TestNodeCardFaultStaysLocal(t *testing.T) {
	res := smallBGL(t, 96*time.Hour, 6)
	for _, f := range res.Failures {
		if f.Archetype != "nodecard" {
			continue
		}
		if len(f.Locations) != 1 || f.Locations[0] != f.Origin {
			t.Errorf("nodecard failure should stay at origin: %+v", f)
		}
	}
}

func TestNetworkFaultFansOut(t *testing.T) {
	res := smallBGL(t, 96*time.Hour, 7)
	sawWide := false
	for _, f := range res.Failures {
		if f.Archetype == "network" && len(f.Locations) > 10 {
			sawWide = true
			break
		}
	}
	if !sawWide {
		t.Error("no wide network failure in 96h")
	}
}

func TestSplit(t *testing.T) {
	res := smallBGL(t, 24*time.Hour, 8)
	cut := t0.Add(12 * time.Hour)
	train, test, testFailures := res.Split(cut)
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("empty split")
	}
	if train[len(train)-1].Time.After(cut) {
		t.Error("train leaks past cut")
	}
	if test[0].Time.Before(cut) {
		t.Error("test starts before cut")
	}
	for _, f := range testFailures {
		if f.Time.Before(cut) {
			t.Error("test failure before cut")
		}
	}
}

func TestSeverityMixRoughlyPaperLike(t *testing.T) {
	// The paper reports error messages are a minority of the log (~18%).
	res := smallBGL(t, 72*time.Hour, 9)
	counts := logs.CountBySeverity(res.Records)
	total := 0
	for _, c := range counts {
		total += c
	}
	errFrac := float64(counts[logs.Severe]+counts[logs.Failure]) / float64(total)
	if errFrac > 0.5 {
		t.Errorf("error fraction = %v, background too thin", errFrac)
	}
	if counts[logs.Info] == 0 || counts[logs.Warning] == 0 {
		t.Error("missing info/warning background")
	}
}

func TestSubstitutionKeepsTemplatesStable(t *testing.T) {
	// Substituted messages must collapse back to one HELO template per
	// event spec.
	res := smallBGL(t, 24*time.Hour, 10)
	o := helo.New(0)
	ids := map[int]bool{}
	for _, r := range res.Records {
		if strings.HasPrefix(r.Message, "correctable error detected in directory") {
			ids[o.Learn(r.Message, r.Severity).ID] = true
		}
	}
	if len(ids) == 0 {
		t.Skip("no memory precursors in window")
	}
	if len(ids) != 1 {
		t.Errorf("memory precursor split into %d templates", len(ids))
	}
}

func TestMercuryProfileGenerates(t *testing.T) {
	res := New(Mercury(), 11).Generate(t0, 48*time.Hour)
	if len(res.Records) == 0 {
		t.Fatal("no mercury records")
	}
	sawNFS := false
	for _, f := range res.Failures {
		if f.Archetype == "nfs" && len(f.Locations) > 20 {
			sawNFS = true
		}
		for _, loc := range f.Locations {
			if !loc.IsFlat() && !loc.IsSystem() {
				t.Errorf("mercury location not flat: %v", loc)
			}
		}
	}
	if !sawNFS {
		t.Error("no wide NFS failure on mercury in 48h")
	}
}

func TestUnheraldedFaultsHaveNoPrecursors(t *testing.T) {
	res := smallBGL(t, 96*time.Hour, 12)
	unheralded := 0
	for _, f := range res.Failures {
		if !f.Heralded {
			unheralded++
		}
	}
	if unheralded == 0 {
		t.Error("expected some unheralded faults (PrecursorProb < 1)")
	}
}

func TestSplitPartitionProperty(t *testing.T) {
	res := smallBGL(t, 24*time.Hour, 14)
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 1} {
		cut := t0.Add(time.Duration(frac * float64(24*time.Hour)))
		train, test, testFailures := res.Split(cut)
		if len(train)+len(test) != len(res.Records) {
			t.Fatalf("split at %v loses records: %d + %d != %d",
				cut, len(train), len(test), len(res.Records))
		}
		for _, r := range train {
			if !r.Time.Before(cut) {
				t.Fatalf("train record at %v >= cut %v", r.Time, cut)
			}
		}
		for _, r := range test {
			if r.Time.Before(cut) {
				t.Fatalf("test record at %v < cut %v", r.Time, cut)
			}
		}
		nFail := 0
		for _, f := range res.Failures {
			if !f.Time.Before(cut) {
				nFail++
			}
		}
		if nFail != len(testFailures) {
			t.Fatalf("test failures = %d, want %d", len(testFailures), nFail)
		}
	}
}

func TestMessageRateReasonable(t *testing.T) {
	res := smallBGL(t, 24*time.Hour, 13)
	rate := float64(len(res.Records)) / (24 * 3600)
	// Background specs sum to ~0.25 msg/s plus cascades; the paper's
	// systems average ~5 msg/s but we scale down for test speed. Assert
	// the order of magnitude only.
	if rate < 0.05 || rate > 20 {
		t.Errorf("message rate = %v msg/s, outside sane band", rate)
	}
}

// FuzzSubstitute holds the compiled substitute to the frozen
// split-and-format one on any template: the same string, and the rng left
// in the same state. Each input runs twice so the second call expands the
// template compiled by the first.
func FuzzSubstitute(f *testing.F) {
	for _, msg := range []string{
		"", " ", "  ", "a  b", "+", "d+", "d+.", "xd+", "0xd+", "*", "* *", "**",
		"*d+", "d+d+", "0xd+.", " d+ ", "n+", "lr:d+ cr:d+ xer:d+ ctr:d+",
		"journal commit i/o error on device sdd+", "job d+ timed out. n+",
	} {
		f.Add(msg, int64(1))
	}
	for _, p := range []Profile{BlueGeneL(), Mercury()} {
		for _, d := range p.Daemons {
			f.Add(d.Message, int64(2))
		}
		for _, a := range p.Archetypes {
			for _, ev := range append(a.Precursors, a.Final) {
				f.Add(ev.Message, int64(3))
			}
		}
	}
	f.Fuzz(func(t *testing.T, msg string, seed int64) {
		g := New(Profile{}, seed)
		ref := rand.New(rand.NewSource(seed))
		for round := 0; round < 2; round++ {
			if got, want := g.substitute(msg), refSubstitute(ref, msg); got != want {
				t.Fatalf("round %d: substitute(%q) = %q, reference %q", round, msg, got, want)
			}
			if got, want := g.rng.Int63(), ref.Int63(); got != want {
				t.Fatalf("round %d: rng state after substitute(%q) differs from the reference's", round, msg)
			}
		}
	})
}

// TestGenerateAllocs pins the cost of a BG/L day: one allocation per
// substituted message (its string) plus the record blocks, the final
// record slice, the failures and the sort's scratch. Splitting,
// formatting and re-joining every message read ~4 allocations a record.
func TestGenerateAllocs(t *testing.T) {
	var records int
	allocs := testing.AllocsPerRun(1, func() {
		records = len(New(BlueGeneL(), 1).Generate(t0, 24*time.Hour).Records)
	})
	if per := allocs / float64(records); per > 1.2 {
		t.Errorf("a BG/L day allocated %.0f times for %d records: %.2f a record, want at most 1.2",
			allocs, records, per)
	}
}

// BenchmarkGenerate times one BG/L day, set-up cost of every experiment
// and benchmark workload.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	var records int
	for i := 0; i < b.N; i++ {
		records = len(New(BlueGeneL(), 1).Generate(t0, 24*time.Hour).Records)
	}
	b.ReportMetric(float64(records), "records/op")
}
