package helo

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/bench"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/logs"
)

// lockstep drives an Organizer and the frozen reference with the same
// messages and fails on the first record they disagree on.
type lockstep struct {
	t   testing.TB
	o   *Organizer
	ref *frozenOrganizer
	n   int
}

func newLockstep(t testing.TB, threshold float64) *lockstep {
	return &lockstep{t: t, o: New(threshold), ref: newFrozen(threshold)}
}

func (l *lockstep) learn(msg string, sev logs.Severity) *Template {
	l.t.Helper()
	got, want := l.o.Learn(msg, sev), l.ref.learn(msg, sev)
	if got.ID != want.ID || got.Support != want.Support || got.MaxSeverity != want.MaxSeverity {
		l.t.Fatalf("message %d %q: Learn = id %d support %d severity %v, reference = id %d support %d severity %v",
			l.n, msg, got.ID, got.Support, got.MaxSeverity, want.ID, want.Support, want.MaxSeverity)
	}
	l.n++
	return got
}

// finish compares the two template sets whole: tokens, Support,
// MaxSeverity.
func (l *lockstep) finish() {
	l.t.Helper()
	got := l.o.Templates()
	if len(got) != len(l.ref.all) {
		l.t.Fatalf("%d templates, reference has %d", len(got), len(l.ref.all))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], l.ref.all[i]) {
			l.t.Fatalf("template %d = %+v, reference %+v", i, got[i], l.ref.all[i])
		}
	}
	for key := range l.o.memo {
		if len(key) > maxMemoKey {
			l.t.Fatalf("memo holds a %d-byte key, bound is %d", len(key), maxMemoKey)
		}
	}
	if len(l.o.memo) > maxMemoEntries {
		l.t.Fatalf("memo holds %d entries, bound is %d", len(l.o.memo), maxMemoEntries)
	}
}

func profileRecords(p gen.Profile, dur time.Duration) []logs.Record {
	start := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	return gen.New(p, 1).Generate(start, dur).Records
}

// TestLearnMatchesFrozenReference: the memoised Learn against the frozen
// pre-memo one, record by record over a day of each generator profile —
// from a cold organizer, and from one restored halfway (a resumed monitor
// starts with its templates and a cold memo) — then over hand-built
// sequences that cross every invalidation edge.
func TestLearnMatchesFrozenReference(t *testing.T) {
	for _, p := range []gen.Profile{gen.BlueGeneL(), bench.ScaledBGL(200), gen.Mercury()} {
		t.Run(p.Name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("generates a day of log")
			}
			recs := profileRecords(p, 24*time.Hour)
			cold := newLockstep(t, 0)
			var restored *lockstep
			for i, r := range recs {
				if i == len(recs)/2 {
					restored = &lockstep{
						t:   t,
						o:   Restore(cold.o.Threshold(), cold.o.Templates()),
						ref: restoreFrozen(cold.ref.threshold, cold.ref.all),
					}
				}
				cold.learn(r.Message, r.Severity)
				if restored != nil {
					restored.learn(r.Message, r.Severity)
				}
			}
			cold.finish()
			restored.finish()
			if !reflect.DeepEqual(cold.o.Templates(), restored.o.Templates()) {
				t.Error("the organizer restored halfway ends with other templates than the uninterrupted one")
			}
			if len(cold.o.memo) == 0 {
				t.Error("a day of log left the memo empty: the test exercised no hit")
			}
		})
	}

	t.Run("wildcarding a memoised template", func(t *testing.T) {
		l := newLockstep(t, 0)
		first := "service card alpha reports link down"
		l.learn(first, logs.Info)
		l.learn(first, logs.Info) // merge: recorded
		l.learn(first, logs.Severe)
		if len(l.o.memo) != 1 {
			t.Fatalf("memo holds %d entries after a repeated shape, want 1", len(l.o.memo))
		}
		l.learn("service card bravo reports link down", logs.Info) // wildcards position 2
		if len(l.o.memo) != 1 {
			t.Fatalf("memo holds %d entries after its template changed, want only the message that changed it", len(l.o.memo))
		}
		if tm := l.learn(first, logs.Info); tm.String() != "service card * reports link down" {
			t.Errorf("template = %q", tm)
		}
		l.learn(first, logs.Failure)
		l.finish()
	})

	t.Run("a new template outscores a memoised winner", func(t *testing.T) {
		l := newLockstep(t, 0)
		// Template 0 is worn down to four constants and six wildcards.
		l.learn("k0 k1 k2 k3 k4 k5 a6 a7 a8 a9", logs.Info)
		l.learn("k0 k1 k2 k3 k4 k5 b6 b7 b8 b9", logs.Info)
		l.learn("k0 k1 k2 k3 c4 c5 c6 c7 c8 c9", logs.Info)
		// m scores 0.7 against it and is memoised there.
		m := "k0 k1 k2 k3 m4 m5 m6 m7 m8 m9"
		l.learn(m, logs.Info)
		if tm := l.learn(m, logs.Info); tm.ID != 0 {
			t.Fatalf("m went to template %d, want 0", tm.ID)
		}
		// n scores 0.5 against template 0, so it opens template 1 — which
		// m matches in eight of ten positions, 0.8.
		if tm := l.learn("z0 z1 k2 k3 m4 m5 m6 m7 m8 m9", logs.Info); tm.ID != 1 {
			t.Fatalf("n went to template %d, want a new template 1", tm.ID)
		}
		if tm := l.learn(m, logs.Info); tm.ID != 1 {
			t.Fatalf("m went to template %d after template 1 appeared, want 1", tm.ID)
		}
		l.learn(m, logs.Info)
		l.finish()
	})

	t.Run("threshold above one never merges", func(t *testing.T) {
		l := newLockstep(t, 1.5)
		for i := 0; i < 50; i++ {
			l.learn("the same message every time", logs.Info)
		}
		l.finish()
		if l.o.Len() != 50 || len(l.o.memo) != 0 {
			t.Errorf("%d templates and %d memo entries, want 50 and 0", l.o.Len(), len(l.o.memo))
		}
	})

	t.Run("odd shapes", func(t *testing.T) {
		l := newLockstep(t, 0)
		for round := 0; round < 3; round++ {
			for _, msg := range []string{
				"", " ", " \t\r\n\v\f ", "*", "* * *", "a  b\tc\nd",
				"LR:0x01A CR:2 xer:+3 ctr: :5 a:b:7 ::9",
				"0X1F 0x 0xZZ 0x-. 12-30 +-", "MiXeD CaSe ToKeNs 0XDEADBEEF",
				"İstanbul node down 5", "0xı 0xš KK", "café   wide　space",
				"bad \xff\xfe utf8 7", "nul \x00 byte",
			} {
				l.learn(msg, logs.Severity(round))
			}
		}
		l.finish()
	})
}

// TestLearnMemoBounded: neither many distinct shapes nor one enormous
// message grows the memo past its two constants, and dropping entries
// changes no result.
func TestLearnMemoBounded(t *testing.T) {
	l := newLockstep(t, 0)
	peak := 0
	for i := 0; i < 10000; i++ {
		l.learn(fmt.Sprintf("fan speed sensor reading channel w%d", i), logs.Info)
		if len(l.o.memo) > peak {
			peak = len(l.o.memo)
		}
	}
	if peak != maxMemoEntries {
		t.Errorf("memo peaked at %d entries over 10000 distinct shapes, want the bound %d", peak, maxMemoEntries)
	}
	huge := strings.Repeat("x7 y ", 1<<20/5)
	l.learn(huge, logs.Info) // a new template: the memo is cleared
	l.learn(huge, logs.Info) // a merge: recorded if it were short enough
	if len(l.o.memo) != 0 {
		t.Errorf("a %d-byte message left %d memo entries", len(huge), len(l.o.memo))
	}
	// Exactly at the bound the key is kept; one byte over it is not.
	atBound := strings.Repeat("a", maxMemoKey)
	for _, msg := range []string{atBound + "a", atBound + "a", atBound, atBound} {
		l.learn(msg, logs.Info)
	}
	if l.o.memo[atBound] == nil || l.o.memo[atBound+"a"] != nil {
		t.Errorf("key bound: %d-byte key kept = %v, %d-byte key kept = %v",
			maxMemoKey, l.o.memo[atBound] != nil, maxMemoKey+1, l.o.memo[atBound+"a"] != nil)
	}
	l.finish()
}

// TestLearnHitAllocs: a warm shape is answered without allocating.
func TestLearnHitAllocs(t *testing.T) {
	o := New(0)
	msg := "CE sym 25, at 0x0b85eee0, mask 0x05 lr:0x01a"
	o.Learn(msg, logs.Info)
	o.Learn(msg, logs.Info)
	if allocs := testing.AllocsPerRun(100, func() { o.Learn(msg, logs.Info) }); allocs != 0 {
		t.Errorf("Learn on a warm shape allocates %v times, want 0", allocs)
	}
}

// TestTemplatesSnapshotIsRaceFree: Templates hands out copies, so a
// Save or Snapshot marshalling them cannot race with Learn bumping
// Support or wildcarding a position. Run under -race.
func TestTemplatesSnapshotIsRaceFree(t *testing.T) {
	o := New(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := json.Marshal(o.Templates()); err != nil {
				t.Error(err)
				return
			}
			o.Pattern(0)
		}
	}()
	for i := 0; i < 2000; i++ {
		o.Learn(fmt.Sprintf("worker message kind %d payload p%d", i%10, i), logs.Severity(i%4))
	}
	close(stop)
	wg.Wait()
}

// TestRestoreCopiesTemplates: the organizer owns its patterns — neither
// the slice Restore was given nor one Templates returned aliases them.
func TestRestoreCopiesTemplates(t *testing.T) {
	given := []*Template{{ID: 0, Tokens: []string{"node", "card", "failed", "hard"}, Support: 3, MaxSeverity: logs.Warning}}
	o := Restore(0, given)
	o.Learn("node card failed soft", logs.Failure)
	want := &Template{ID: 0, Tokens: []string{"node", "card", "failed", "hard"}, Support: 3, MaxSeverity: logs.Warning}
	if !reflect.DeepEqual(given[0], want) {
		t.Errorf("Learn wrote through to the caller's template: %+v", given[0])
	}
	given[0].Tokens[0] = "edited"
	o.Templates()[0].Tokens[1] = "edited"
	if got, _ := o.Pattern(0); got != "node card failed *" {
		t.Errorf("pattern = %q after the caller edited its copies", got)
	}
}

var learnSink *Template

// BenchmarkLearn is the serving path's cost per record once the template
// set has settled: twelve hours of a profile, learned once, then replayed.
func BenchmarkLearn(b *testing.B) {
	for _, p := range []gen.Profile{gen.BlueGeneL(), bench.ScaledBGL(200)} {
		recs := profileRecords(p, 12*time.Hour)
		b.Run(p.Name, func(b *testing.B) {
			o := New(0)
			o.Assign(recs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := &recs[i%len(recs)]
				learnSink = o.Learn(r.Message, r.Severity)
			}
		})
	}
}

// FuzzLearnMatchesFrozen: any sequence of messages, at any threshold,
// gets the same id per message and the same final templates from the
// memoised Learn and the frozen reference. The sequence runs twice so
// that the second pass is answered from whatever the first left in the
// memo.
func FuzzLearnMatchesFrozen(f *testing.F) {
	f.Add(uint8(0), "service card alpha down\nservice card alpha down\nservice card bravo down\nservice card alpha down")
	f.Add(uint8(1), "a b c\na b d\nx y z\na b c")
	f.Add(uint8(2), "same\nsame\nsame")
	f.Add(uint8(3), "lr:0x1 cr:2\nLR:0X2 CR:3\n\n \nİ x\n0xı")
	f.Fuzz(func(t *testing.T, th uint8, seq string) {
		l := newLockstep(t, []float64{0, 0.3, 1, 1.5}[th%4])
		msgs := strings.Split(seq, "\n")
		for pass := 0; pass < 2; pass++ {
			for i, msg := range msgs {
				l.learn(msg, logs.Severity(i%5))
			}
		}
		l.finish()
	})
}

// FuzzNormalise: whenever the byte-level normaliser accepts a message its
// key is the frozen tokeniser's tokens joined by single spaces; with room
// to spare it accepts exactly the messages without a byte >= 0x80; and
// Tokenize agrees with the frozen tokeniser on every message.
func FuzzNormalise(f *testing.F) {
	for _, s := range []string{
		"", " ", "CE sym 25, at 0x0b85eee0, mask 0x05", "LR:0x01A cr:2 a:b:7 ::9 ctr:",
		"a\tb\nc\vd\fe\rf  g", "0X1F 0x 0xZZ 12-30 +-", "İ x", "0xı", "\xff 1", "1 2 3 4 5 6 7 8 9",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, msg string) {
		want := frozenTokenize(msg)
		wantKey := strings.Join(want, " ")
		ascii := strings.IndexFunc(msg, func(r rune) bool { return r >= 0x80 }) < 0
		roomy := make([]byte, 2*len(msg)+2)
		n, ok := normalise(roomy, msg)
		if ok != ascii {
			t.Fatalf("normalise(%q) accepted = %v, message is ASCII = %v", msg, ok, ascii)
		}
		if ok && string(roomy[:n]) != wantKey {
			t.Fatalf("normalise(%q) = %q, frozen tokens join to %q", msg, roomy[:n], wantKey)
		}
		// A buffer that may be too small: refuse or agree, never truncate.
		tight := make([]byte, len(msg)/2)
		if n, ok := normalise(tight, msg); ok && string(tight[:n]) != wantKey {
			t.Fatalf("normalise(%q) into %d bytes = %q, want %q or a refusal", msg, len(tight), tight[:n], wantKey)
		}
		got := Tokenize(msg)
		if len(got) != len(want) {
			t.Fatalf("Tokenize(%q) = %q, frozen %q", msg, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Tokenize(%q) = %q, frozen %q", msg, got, want)
			}
		}
	})
}
