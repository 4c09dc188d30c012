package helo

import (
	"fmt"
	"sync"
	"testing"

	"github.com/elsa-hpc/elsa/internal/logs"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("CE sym 25, at 0x0b85eee0, mask 0x05")
	want := []string{"ce", "sym", NumToken, "at", NumToken, "mask", NumToken}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestIsNumeric(t *testing.T) {
	for s, want := range map[string]bool{
		"123":       true,
		"1:136":     true,
		"3.14":      true,
		"0xdead":    true,
		"0xzz":      false,
		"l3":        false,
		"abc":       false,
		"":          false,
		"-":         false,
		"12-30":     true,
		"ddr3ecc":   false,
		"127.0.0.1": true,
	} {
		if got := isNumeric([]byte(s)); got != want {
			t.Errorf("isNumeric(%q) = %v, want %v", s, got, want)
		}
		if got := isNumericString(s); got != want {
			t.Errorf("isNumericString(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestLearnMergesVariants(t *testing.T) {
	o := New(0)
	a := o.Learn("correctable error detected in directory 0x0a", logs.Warning)
	b := o.Learn("correctable error detected in directory 0x1f", logs.Warning)
	if a.ID != b.ID {
		t.Fatalf("variants split into templates %d and %d", a.ID, b.ID)
	}
	if a.Support != 2 {
		t.Errorf("Support = %d, want 2", a.Support)
	}
	// The numeric position is normalised, so it stays NumToken.
	if got := a.String(); got != "correctable error detected in directory d+" {
		t.Errorf("template = %q", got)
	}
}

func TestLearnWildcardsVariablePositions(t *testing.T) {
	o := New(0)
	o.Learn("problem communicating with service card alpha", logs.Severe)
	tmpl := o.Learn("problem communicating with service card bravo", logs.Severe)
	if got := tmpl.String(); got != "problem communicating with service card *" {
		t.Errorf("template = %q", got)
	}
}

func TestLearnSeparatesDistinctEvents(t *testing.T) {
	o := New(0)
	a := o.Learn("instruction cache parity error corrected", logs.Warning)
	b := o.Learn("ciodb exited abnormally due to signal: aborted", logs.Failure)
	if a.ID == b.ID {
		t.Error("distinct messages collapsed into one template")
	}
	if o.Len() != 2 {
		t.Errorf("Len = %d", o.Len())
	}
}

func TestLearnTracksMaxSeverity(t *testing.T) {
	o := New(0)
	o.Learn("node card vpd check failed slot 3", logs.Warning)
	tmpl := o.Learn("node card vpd check failed slot 7", logs.Severe)
	if tmpl.MaxSeverity != logs.Severe {
		t.Errorf("MaxSeverity = %v", tmpl.MaxSeverity)
	}
	tmpl = o.Learn("node card vpd check failed slot 9", logs.Info)
	if tmpl.MaxSeverity != logs.Severe {
		t.Error("MaxSeverity should not decrease")
	}
}

func TestMatchDoesNotMutate(t *testing.T) {
	o := New(0)
	o.Learn("ddr failing data registers: 11 22", logs.Severe)
	before := o.Len()
	if _, ok := o.Match("ddr failing data registers: 33 44"); !ok {
		t.Error("expected match")
	}
	if _, ok := o.Match("completely different message body here"); ok {
		t.Error("unexpected match")
	}
	if o.Len() != before {
		t.Error("Match created templates")
	}
}

func TestDifferentLengthsNeverMerge(t *testing.T) {
	o := New(0)
	a := o.Learn("general purpose registers:", logs.Info)
	b := o.Learn("general purpose registers: extra", logs.Info)
	if a.ID == b.ID {
		t.Error("different token counts merged")
	}
}

func TestTemplatesOrderedByID(t *testing.T) {
	o := New(0)
	for i := 0; i < 20; i++ {
		o.Learn(fmt.Sprintf("unique message body number %c end", 'a'+i), logs.Info)
	}
	ts := o.Templates()
	for i, tmpl := range ts {
		if tmpl.ID != i {
			t.Fatalf("template %d has id %d", i, tmpl.ID)
		}
	}
}

func TestAssignStampsEventIDs(t *testing.T) {
	o := New(0)
	recs := []logs.Record{
		{Message: "link card power module 1 is not accessible", Severity: logs.Severe},
		{Message: "link card power module 2 is not accessible", Severity: logs.Severe},
		{Message: "temperature over limit on link card", Severity: logs.Failure},
	}
	n := o.Assign(recs)
	if n != 2 {
		t.Fatalf("template count = %d, want 2", n)
	}
	if recs[0].EventID != recs[1].EventID {
		t.Error("same event type got different ids")
	}
	if recs[0].EventID == recs[2].EventID {
		t.Error("different event types share an id")
	}
}

func TestStableIDsAcrossReplay(t *testing.T) {
	msgs := []string{
		"ciodb has been restarted.",
		"mmcs db server has been started: ./mmcs_db_server --usedatabase bgl",
		"ciodb has been restarted.",
		"total of 14 ddr error(s) detected and corrected",
		"total of 9 ddr error(s) detected and corrected",
	}
	ids1 := replay(msgs)
	ids2 := replay(msgs)
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, ids1, ids2)
		}
	}
}

func replay(msgs []string) []int {
	o := New(0)
	out := make([]int, len(msgs))
	for i, m := range msgs {
		out[i] = o.Learn(m, logs.Info).ID
	}
	return out
}

func TestConcurrentLearn(t *testing.T) {
	o := New(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o.Learn(fmt.Sprintf("worker message kind %d payload %d", i%10, i), logs.Info)
			}
		}(w)
	}
	wg.Wait()
	if o.Len() == 0 || o.Len() > 20 {
		t.Errorf("unexpected template count %d", o.Len())
	}
}

func TestEmptyMessage(t *testing.T) {
	o := New(0)
	tmpl := o.Learn("", logs.Info)
	if tmpl == nil {
		t.Fatal("empty message should still yield a template")
	}
	tmpl2 := o.Learn("", logs.Info)
	if tmpl.ID != tmpl2.ID {
		t.Error("empty messages should share a template")
	}
}
