package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// refString is Location.String as it stood when it went through fmt: the
// frozen reference AppendText is pinned to.
func refString(l Location) string {
	if l.Flat != "" {
		return l.Flat
	}
	if l.Rack < 0 {
		return "SYSTEM"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "R%02d", l.Rack)
	if l.Midplane < 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "-M%d", l.Midplane)
	if l.NodeCard < 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "-N%d", l.NodeCard)
	if l.Card == CardNone || l.Slot < 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "-%s:J%02d-U%02d", l.Card, l.Slot, l.Unit)
	return b.String()
}

// TestAppendTextMatchesFmtRendering walks every node, node card, midplane
// and rack of the machine plus the field values no machine produces
// (three-digit racks, a negative unit, a card byte outside ASCII).
func TestAppendTextMatchesFmtRendering(t *testing.T) {
	m := BlueGeneL()
	locs := []Location{System, {}, FlatNode("tg-c042"), Node(100, 1, 15, 7, 11), Node(5, 0, 3, 9, -1),
		Node(123456, 12, 345, 100, 100), {Rack: 9, Midplane: 0, NodeCard: 2, Card: CardKind(0xe9), Slot: 3, Unit: 4}}
	for i := 0; i < m.NumNodes(); i++ {
		n := m.NodeByIndex(i)
		locs = append(locs, n, n.Truncate(ScopeNodeCard), n.Truncate(ScopeMidplane), n.Truncate(ScopeRack))
	}
	for _, l := range locs {
		want := refString(l)
		if got := l.String(); got != want {
			t.Fatalf("%#v: String() = %q, fmt rendering %q", l, got, want)
		}
		if got := string(l.AppendText([]byte("x "))); got != "x "+want {
			t.Fatalf("%#v: AppendText = %q, want x %q", l, got, want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"R00-M0-N0-C:J02-U01",
		"R22-M0-N0-I:J18-U01",
		"R00-M0-N0",
		"R63-M1-N15",
		"R07-M1",
		"R11",
		"SYSTEM",
		"tg-c042",
	}
	for _, s := range cases {
		loc, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := loc.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
	}
}

func TestParseSystemAliases(t *testing.T) {
	for _, s := range []string{"", "NULL", "-", "SYSTEM", "  SYSTEM  "} {
		loc, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !loc.IsSystem() {
			t.Errorf("Parse(%q) = %v, want System", s, loc)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"R0x",
		"R00-X0",
		"R00-M0-N",
		"R00-M0-N0-Q:J02-U01",
		"R00-M0-N0-C:J02",
		"R00-M0-N0-C:Jxx-U01",
		"two words",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

func TestLevels(t *testing.T) {
	cases := []struct {
		in   string
		want Scope
	}{
		{"R00-M0-N0-C:J02-U01", ScopeNode},
		{"R00-M0-N0", ScopeNodeCard},
		{"R00-M0", ScopeMidplane},
		{"R00", ScopeRack},
		{"SYSTEM", ScopeSystem},
		{"tg-c001", ScopeNode},
	}
	for _, c := range cases {
		if got := MustParse(c.in).Level(); got != c.want {
			t.Errorf("Level(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	node := MustParse("R00-M0-N0-C:J02-U01")
	cases := []struct {
		outer, inner string
		want         bool
	}{
		{"SYSTEM", "R00-M0-N0-C:J02-U01", true},
		{"R00", "R00-M0-N0-C:J02-U01", true},
		{"R00-M0", "R00-M0-N0-C:J02-U01", true},
		{"R00-M0-N0", "R00-M0-N0-C:J02-U01", true},
		{"R00-M0-N1", "R00-M0-N0-C:J02-U01", false},
		{"R01", "R00-M0-N0-C:J02-U01", false},
		{"tg-c001", "tg-c001", true},
		{"tg-c001", "tg-c002", false},
	}
	for _, c := range cases {
		if got := MustParse(c.outer).Contains(MustParse(c.inner)); got != c.want {
			t.Errorf("%q.Contains(%q) = %v, want %v", c.outer, c.inner, got, c.want)
		}
	}
	if !node.Contains(node) {
		t.Error("node should contain itself")
	}
}

func TestCommonScope(t *testing.T) {
	cases := []struct {
		a, b string
		want Scope
	}{
		{"R00-M0-N0-C:J02-U01", "R00-M0-N0-C:J02-U01", ScopeNode},
		{"R00-M0-N0-C:J02-U01", "R00-M0-N0-C:J03-U01", ScopeNodeCard},
		{"R00-M0-N0-C:J02-U01", "R00-M0-N1-C:J02-U01", ScopeMidplane},
		{"R00-M0-N0-C:J02-U01", "R00-M1-N0-C:J02-U01", ScopeRack},
		{"R00-M0-N0-C:J02-U01", "R01-M0-N0-C:J02-U01", ScopeSystem},
		{"tg-c001", "tg-c001", ScopeNode},
		{"tg-c001", "tg-c002", ScopeSystem},
	}
	for _, c := range cases {
		if got := CommonScope(MustParse(c.a), MustParse(c.b)); got != c.want {
			t.Errorf("CommonScope(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCommonScopeSymmetric(t *testing.T) {
	m := BlueGeneL()
	rng := rand.New(rand.NewSource(7))
	f := func(i, j uint16) bool {
		a := m.NodeByIndex(int(i) % m.NumNodes())
		b := m.NodeByIndex(int(j) % m.NumNodes())
		return CommonScope(a, b) == CommonScope(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestTruncate(t *testing.T) {
	node := MustParse("R05-M1-N7-C:J10-U00")
	if got := node.Truncate(ScopeNodeCard).String(); got != "R05-M1-N7" {
		t.Errorf("Truncate(nodecard) = %q", got)
	}
	if got := node.Truncate(ScopeMidplane).String(); got != "R05-M1" {
		t.Errorf("Truncate(midplane) = %q", got)
	}
	if got := node.Truncate(ScopeRack).String(); got != "R05" {
		t.Errorf("Truncate(rack) = %q", got)
	}
	if !node.Truncate(ScopeSystem).IsSystem() {
		t.Error("Truncate(system) should be System")
	}
	flat := FlatNode("tg-c001")
	if !flat.Truncate(ScopeRack).IsSystem() {
		t.Error("flat node truncated above node should be System")
	}
	if flat.Truncate(ScopeNode) != flat {
		t.Error("flat node truncated to node should be itself")
	}
}

func TestTruncateContainsProperty(t *testing.T) {
	m := BlueGeneL()
	rng := rand.New(rand.NewSource(11))
	f := func(i uint16, s uint8) bool {
		node := m.NodeByIndex(int(i) % m.NumNodes())
		scope := Scope(int(s) % int(ScopeSystem+1))
		return node.Truncate(scope).Contains(node)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSpanScope(t *testing.T) {
	if got := SpanScope(nil); got != ScopeNode {
		t.Errorf("SpanScope(nil) = %v", got)
	}
	locs := []Location{
		MustParse("R00-M0-N0-C:J02-U01"),
		MustParse("R00-M0-N0-C:J05-U01"),
	}
	if got := SpanScope(locs); got != ScopeNodeCard {
		t.Errorf("SpanScope same card = %v, want nodecard", got)
	}
	locs = append(locs, MustParse("R00-M1-N0-C:J02-U01"))
	if got := SpanScope(locs); got != ScopeRack {
		t.Errorf("SpanScope cross midplane = %v, want rack", got)
	}
}

func TestParseScopeRoundTrips(t *testing.T) {
	for s := ScopeNode; s <= ScopeSystem; s++ {
		got, err := ParseScope(s.String())
		if err != nil {
			t.Fatalf("ParseScope(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("ParseScope(%q) = %v, want %v", s.String(), got, s)
		}
	}
	for _, bad := range []string{"", "Rack", "cluster", "invalid"} {
		if _, err := ParseScope(bad); err == nil {
			t.Fatalf("ParseScope(%q) accepted", bad)
		}
	}
}
