// Package topology models the physical component hierarchy of an HPC
// machine and the location codes that event logs use to name components.
//
// Two addressing schemes are supported, matching the two systems studied in
// the paper:
//
//   - Blue Gene-style hierarchical codes such as "R00-M0-N0-C:J02-U01"
//     (rack, midplane, node card, card kind, slot, unit). Prefixes of the
//     full code name coarser components: "R00-M0-N0" is a node card,
//     "R00-M0" a midplane, "R00" a rack.
//   - Flat cluster hostnames such as "tg-c042" (Mercury-style), where the
//     machine is a set of nodes grouped into switches/racks only implicitly.
//
// The package also defines Scope, the granularity lattice used by the
// location-correlation analysis (node < node card < midplane < rack <
// system).
package topology

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// CardKind distinguishes the card type of a fully qualified Blue Gene-style
// location.
type CardKind byte

// Card kinds appearing in location codes.
const (
	CardNone    CardKind = 0   // location does not name a card
	CardCompute CardKind = 'C' // compute card
	CardIO      CardKind = 'I' // I/O card
	CardLink    CardKind = 'L' // link card
	CardService CardKind = 'S' // service card
)

// String returns the single-letter code used inside location strings.
func (k CardKind) String() string {
	if k == CardNone {
		return ""
	}
	return string(byte(k))
}

// Location identifies a hardware component. The zero value is the "system"
// location: it names no specific component and contains every other
// location.
//
// For hierarchical machines, fields are filled top-down and a value of -1
// means "not specified at this granularity". For flat machines only Flat is
// set.
type Location struct {
	// Flat holds the hostname for flat-cluster addressing. When non-empty
	// all hierarchical fields are ignored.
	Flat string

	Rack     int // rack index, -1 if unspecified
	Midplane int // midplane within rack, -1 if unspecified
	NodeCard int // node card within midplane, -1 if unspecified
	Card     CardKind
	Slot     int // J-slot on the card, -1 if unspecified
	Unit     int // U-unit within the slot, -1 if unspecified
}

// System is the location naming the whole machine.
var System = Location{Rack: -1, Midplane: -1, NodeCard: -1, Slot: -1, Unit: -1}

// Node constructs a fully qualified compute-node location.
func Node(rack, midplane, nodeCard, slot, unit int) Location {
	return Location{Rack: rack, Midplane: midplane, NodeCard: nodeCard,
		Card: CardCompute, Slot: slot, Unit: unit}
}

// FlatNode constructs a flat-cluster node location.
func FlatNode(host string) Location {
	return Location{Flat: host, Rack: -1, Midplane: -1, NodeCard: -1, Slot: -1, Unit: -1}
}

// IsFlat reports whether l uses flat-cluster addressing.
func (l Location) IsFlat() bool { return l.Flat != "" }

// IsSystem reports whether l names the whole machine.
func (l Location) IsSystem() bool {
	return l.Flat == "" && l.Rack < 0
}

// Level returns the granularity at which l names a component: a flat node
// is ScopeNode; a hierarchical code is as deep as its most specific field.
func (l Location) Level() Scope {
	switch {
	case l.Flat != "":
		return ScopeNode
	case l.Rack < 0:
		return ScopeSystem
	case l.Midplane < 0:
		return ScopeRack
	case l.NodeCard < 0:
		return ScopeMidplane
	case l.Card == CardNone || l.Slot < 0:
		return ScopeNodeCard
	default:
		return ScopeNode
	}
}

// String renders the canonical location code.
func (l Location) String() string {
	switch { // the two codes that are strings already cost nothing
	case l.Flat != "":
		return l.Flat
	case l.Rack < 0:
		return "SYSTEM"
	}
	var buf [32]byte
	return string(l.AppendText(buf[:0]))
}

// AppendText appends the canonical location code to dst: the rendering
// String returns, without fmt or an intermediate string.
func (l Location) AppendText(dst []byte) []byte {
	if l.Flat != "" {
		return append(dst, l.Flat...)
	}
	if l.Rack < 0 {
		return append(dst, "SYSTEM"...)
	}
	dst = appendInt2(append(dst, 'R'), l.Rack)
	if l.Midplane < 0 {
		return dst
	}
	dst = strconv.AppendInt(append(dst, "-M"...), int64(l.Midplane), 10)
	if l.NodeCard < 0 {
		return dst
	}
	dst = strconv.AppendInt(append(dst, "-N"...), int64(l.NodeCard), 10)
	if l.Card == CardNone || l.Slot < 0 {
		return dst
	}
	dst = utf8.AppendRune(append(dst, '-'), rune(l.Card))
	dst = appendInt2(append(dst, ":J"...), l.Slot)
	return appendInt2(append(dst, "-U"...), l.Unit)
}

// appendInt2 appends v the way fmt's %02d does: zero-padded to two
// characters, wider values and negative ones as they are.
func appendInt2(dst []byte, v int) []byte {
	if 0 <= v && v < 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// Parse decodes a location code produced by String (or found in logs).
// "SYSTEM", "" and "NULL" decode to the System location. Codes that do not
// look hierarchical are treated as flat hostnames.
func Parse(s string) (Location, error) {
	s = strings.TrimSpace(s)
	if isSystemCode(s) {
		return System, nil
	}
	if !looksHierarchical(s) {
		// Flat hostname.
		if !IsFlatHost(s) {
			return Location{}, fmt.Errorf("topology: invalid location %q", s)
		}
		return FlatNode(s), nil
	}
	loc := System
	rest := s
	// Rack: Rnn
	rack, err := strconv.Atoi(rest[1:3])
	if err != nil {
		return Location{}, fmt.Errorf("topology: bad rack in %q: %v", s, err)
	}
	loc.Rack = rack
	rest = rest[3:]
	if rest == "" {
		return loc, nil
	}
	// Midplane: -Mn
	if !strings.HasPrefix(rest, "-M") || len(rest) < 3 {
		return Location{}, fmt.Errorf("topology: bad midplane in %q", s)
	}
	mp, err := strconv.Atoi(rest[2:3])
	if err != nil {
		return Location{}, fmt.Errorf("topology: bad midplane in %q: %v", s, err)
	}
	loc.Midplane = mp
	rest = rest[3:]
	if rest == "" {
		return loc, nil
	}
	// Node card: -Nn or -Nnn
	if !strings.HasPrefix(rest, "-N") {
		return Location{}, fmt.Errorf("topology: bad node card in %q", s)
	}
	rest = rest[2:]
	ncDigits := 0
	for ncDigits < len(rest) && isDigit(rest[ncDigits]) {
		ncDigits++
	}
	if ncDigits == 0 {
		return Location{}, fmt.Errorf("topology: bad node card in %q", s)
	}
	nc, _ := strconv.Atoi(rest[:ncDigits])
	loc.NodeCard = nc
	rest = rest[ncDigits:]
	if rest == "" {
		return loc, nil
	}
	// Card: -K:Jss-Uuu
	if len(rest) < len("-C:J00-U00") || rest[0] != '-' || rest[2] != ':' {
		return Location{}, fmt.Errorf("topology: bad card suffix in %q", s)
	}
	switch rest[1] {
	case 'C', 'I', 'L', 'S':
		loc.Card = CardKind(rest[1])
	default:
		return Location{}, fmt.Errorf("topology: unknown card kind %q in %q", rest[1], s)
	}
	rest = rest[3:]
	if rest[0] != 'J' {
		return Location{}, fmt.Errorf("topology: bad slot in %q", s)
	}
	slot, err := strconv.Atoi(rest[1:3])
	if err != nil {
		return Location{}, fmt.Errorf("topology: bad slot in %q: %v", s, err)
	}
	loc.Slot = slot
	rest = rest[3:]
	if !strings.HasPrefix(rest, "-U") || len(rest) != 4 {
		return Location{}, fmt.Errorf("topology: bad unit in %q", s)
	}
	unit, err := strconv.Atoi(rest[2:4])
	if err != nil {
		return Location{}, fmt.Errorf("topology: bad unit in %q: %v", s, err)
	}
	loc.Unit = unit
	return loc, nil
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

// isSystemCode reports whether s is one of the codes Parse reads as System.
func isSystemCode(s string) bool {
	switch s {
	case "", "SYSTEM", "NULL", "-":
		return true
	}
	return false
}

// looksHierarchical reports whether Parse reads s as a rack code rather
// than a flat hostname.
func looksHierarchical(s string) bool { return len(s) >= 3 && s[0] == 'R' && isDigit(s[1]) }

// IsFlatHost reports whether Parse reads s back as FlatNode(s): s is not
// a System code or a rack code, holds no space or tab and has no
// surrounding white space. A host that fails cannot travel as text, in
// a log line or in a snapshot.
func IsFlatHost(s string) bool {
	return !isSystemCode(s) && !looksHierarchical(s) && !strings.ContainsAny(s, " \t") && strings.TrimSpace(s) == s
}

// MustParse is Parse that panics on error; intended for literals in tests
// and examples.
func MustParse(s string) Location {
	loc, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return loc
}

// Truncate returns l restricted to the given scope: Truncate(ScopeMidplane)
// of a node location is its midplane. Truncating a flat node above
// ScopeNode yields System (flat clusters expose no hierarchy).
func (l Location) Truncate(s Scope) Location {
	if l.Flat != "" {
		if s == ScopeNode {
			return l
		}
		return System
	}
	out := l
	switch s {
	case ScopeSystem:
		return System
	case ScopeRack:
		out.Midplane, out.NodeCard, out.Card, out.Slot, out.Unit = -1, -1, CardNone, -1, -1
	case ScopeMidplane:
		out.NodeCard, out.Card, out.Slot, out.Unit = -1, CardNone, -1, -1
	case ScopeNodeCard:
		out.Card, out.Slot, out.Unit = CardNone, -1, -1
	}
	return out
}

// Contains reports whether every component named by other lies within l.
// System contains everything; a node card contains its nodes; a node
// contains only itself.
func (l Location) Contains(other Location) bool {
	if l.IsSystem() {
		return true
	}
	if l.Flat != "" || other.Flat != "" {
		return l.Flat == other.Flat
	}
	if other.Rack != l.Rack {
		return false
	}
	if l.Midplane < 0 {
		return true
	}
	if other.Midplane != l.Midplane {
		return false
	}
	if l.NodeCard < 0 {
		return true
	}
	if other.NodeCard != l.NodeCard {
		return false
	}
	if l.Card == CardNone || l.Slot < 0 {
		return true
	}
	return other.Card == l.Card && other.Slot == l.Slot && other.Unit == l.Unit
}

// CommonScope returns the smallest scope at which a and b share an
// enclosing component. Two distinct flat nodes share only ScopeSystem.
func CommonScope(a, b Location) Scope {
	if a == b {
		return a.Level()
	}
	if a.Flat != "" || b.Flat != "" {
		if a.Flat == b.Flat {
			return ScopeNode
		}
		return ScopeSystem
	}
	if a.Rack < 0 || b.Rack < 0 || a.Rack != b.Rack {
		return ScopeSystem
	}
	if a.Midplane < 0 || b.Midplane < 0 || a.Midplane != b.Midplane {
		return ScopeRack
	}
	if a.NodeCard < 0 || b.NodeCard < 0 || a.NodeCard != b.NodeCard {
		return ScopeMidplane
	}
	if a.Card == CardNone || b.Card == CardNone ||
		a.Card != b.Card || a.Slot != b.Slot || a.Unit != b.Unit {
		return ScopeNodeCard
	}
	return ScopeNode
}
