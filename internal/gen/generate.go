package gen

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/stats"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// FailureRecord is one injected fault instance: the ground truth the
// prediction experiments score against.
type FailureRecord struct {
	Time      time.Time // time of the terminal failure event
	Archetype string
	Category  string
	Heralded  bool // whether the precursor cascade was emitted
	Origin    topology.Location
	Locations []topology.Location // components hit by the failure event
}

// Result is a generated log plus its ground truth.
type Result struct {
	Profile  string
	Start    time.Time
	End      time.Time
	Records  []logs.Record
	Failures []FailureRecord
}

// Split partitions the records at time cut: Train gets [Start, cut), Test
// gets [cut, End), and TestFailures the ground-truth faults in the test
// window.
func (r *Result) Split(cut time.Time) (train, test []logs.Record, testFailures []FailureRecord) {
	i := sort.Search(len(r.Records), func(k int) bool { return !r.Records[k].Time.Before(cut) })
	train, test = r.Records[:i], r.Records[i:]
	for _, f := range r.Failures {
		if !f.Time.Before(cut) {
			testFailures = append(testFailures, f)
		}
	}
	return train, test, testFailures
}

// Generator produces synthetic logs for one profile.
type Generator struct {
	prof Profile
	rng  *rand.Rand

	// silences holds per-rack heartbeat-suppression windows collected
	// while emitting fault cascades.
	silences map[int][]interval

	// templates holds each message template compiled on first use, and
	// buf is the scratch every substituted message is built in.
	templates map[string]*template
	buf       []byte

	// blocks holds the records of the Generate call in progress, in
	// fixed-size blocks that are copied once into a slice of the exact
	// length: growing one slice record by record cleared and copied about
	// five times the log's size.
	blocks [][]logs.Record
}

// blockLen is the record capacity of one block.
const blockLen = 4096

// interval is a half-open time window.
type interval struct{ from, to time.Time }

// New returns a deterministic generator for the profile and seed.
func New(prof Profile, seed int64) *Generator {
	return &Generator{
		prof:      prof,
		rng:       rand.New(rand.NewSource(seed)),
		silences:  make(map[int][]interval),
		templates: make(map[string]*template),
	}
}

// Generate produces the log for [start, start+dur). Records are sorted by
// time; cascade events that would land past the end are dropped, and a
// fault whose terminal event falls past the end is not counted as a
// ground-truth failure. Fault cascades are emitted before daemons so that
// rack-silencing faults can mute the heartbeats they overlap.
func (g *Generator) Generate(start time.Time, dur time.Duration) *Result {
	end := start.Add(dur)
	res := &Result{Profile: g.prof.Name, Start: start, End: end}
	for _, a := range g.prof.Archetypes {
		g.emitArchetype(res, a, start, end)
	}
	for _, d := range g.prof.Daemons {
		g.emitDaemon(res, d, start, end)
	}
	n := 0
	for _, b := range g.blocks {
		n += len(b)
	}
	if n > 0 {
		res.Records = make([]logs.Record, 0, n)
		for _, b := range g.blocks {
			res.Records = append(res.Records, b...)
		}
	}
	g.blocks = nil
	logs.SortByTime(res.Records)
	sort.Slice(res.Failures, func(i, j int) bool { return res.Failures[i].Time.Before(res.Failures[j].Time) })
	return res
}

func (g *Generator) emitDaemon(res *Result, d DaemonSpec, start, end time.Time) {
	if d.PerRack && d.Period > 0 && !g.prof.Machine.IsFlat() {
		for rack := 0; rack < g.prof.Machine.Racks; rack++ {
			loc := topology.Location{Rack: rack, Midplane: -1, NodeCard: -1, Slot: -1, Unit: -1}
			t := start.Add(time.Duration(g.rng.Int63n(int64(d.Period))))
			for t.Before(end) {
				if !g.silenced(rack, t) {
					g.emit(g.record(t, d.Severity, loc, d.Component, d.Message))
				}
				t = t.Add(d.Period)
			}
		}
		return
	}
	if d.Period > 0 {
		// Random phase so daemons do not all align on the start tick.
		t := start.Add(time.Duration(g.rng.Int63n(int64(d.Period))))
		for t.Before(end) {
			g.emit(g.record(t, d.Severity, g.daemonLoc(d), d.Component, d.Message))
			t = t.Add(d.Period)
		}
		return
	}
	if d.Rate <= 0 {
		return
	}
	mean := 1 / d.Rate // seconds between events
	t := start.Add(secs(stats.Exponential(g.rng, mean)))
	for t.Before(end) {
		g.emit(g.record(t, d.Severity, g.daemonLoc(d), d.Component, d.Message))
		t = t.Add(secs(stats.Exponential(g.rng, mean)))
	}
}

// emit appends r to the last block, starting a new one when it is full.
func (g *Generator) emit(r logs.Record) {
	n := len(g.blocks)
	if n == 0 || len(g.blocks[n-1]) == blockLen {
		g.blocks = append(g.blocks, make([]logs.Record, 0, blockLen))
		n++
	}
	g.blocks[n-1] = append(g.blocks[n-1], r)
}

// silenced reports whether a rack's heartbeats are muted at time t.
func (g *Generator) silenced(rack int, t time.Time) bool {
	for _, iv := range g.silences[rack] {
		if !t.Before(iv.from) && t.Before(iv.to) {
			return true
		}
	}
	return false
}

func (g *Generator) daemonLoc(d DaemonSpec) topology.Location {
	if d.PerNode {
		return g.prof.Machine.RandomNode(g.rng)
	}
	return topology.System
}

func (g *Generator) emitArchetype(res *Result, a FaultArchetype, start, end time.Time) {
	t := start.Add(secs(stats.Exponential(g.rng, a.MTBF.Seconds())))
	for t.Before(end) {
		g.emitCascade(res, a, t, end)
		t = t.Add(secs(stats.Exponential(g.rng, a.MTBF.Seconds())))
	}
}

func (g *Generator) emitCascade(res *Result, a FaultArchetype, t time.Time, end time.Time) {
	origin := g.origin(a)
	heralded := stats.Bernoulli(g.rng, a.PrecursorProb)
	cur := t
	for _, ev := range a.Precursors {
		cur = cur.Add(g.jittered(ev))
		if heralded && cur.Before(end) {
			g.emitEvent(res, ev, cur, origin)
		}
	}
	cur = cur.Add(g.jittered(a.Final))
	if !cur.Before(end) {
		return
	}
	if a.SilenceRack > 0 && origin.Rack >= 0 {
		g.silences[origin.Rack] = append(g.silences[origin.Rack],
			interval{from: t, to: t.Add(a.SilenceRack)})
	}
	locs := g.emitEvent(res, a.Final, cur, origin)
	if a.IsFailure {
		res.Failures = append(res.Failures, FailureRecord{
			Time:      cur,
			Archetype: a.Name,
			Category:  a.Category,
			Heralded:  heralded,
			Origin:    origin,
			Locations: locs,
		})
	}
}

// origin picks where a fault strikes at the archetype's granularity.
func (g *Generator) origin(a FaultArchetype) topology.Location {
	switch a.OriginScope {
	case topology.ScopeNode:
		return g.prof.Machine.RandomNode(g.rng)
	case topology.ScopeNodeCard:
		return g.prof.Machine.RandomNodeCard(g.rng)
	case topology.ScopeMidplane:
		n := g.prof.Machine.RandomNode(g.rng)
		return n.Truncate(topology.ScopeMidplane)
	case topology.ScopeRack:
		n := g.prof.Machine.RandomNode(g.rng)
		return n.Truncate(topology.ScopeRack)
	default:
		return topology.System
	}
}

// emitEvent writes the burst copies of ev and returns the distinct
// locations touched.
func (g *Generator) emitEvent(res *Result, ev EventSpec, t time.Time, origin topology.Location) []topology.Location {
	locs := g.eventLocations(ev, origin)
	burst := ev.Burst
	if burst < 1 {
		burst = 1
	}
	for _, loc := range locs {
		for b := 0; b < burst; b++ {
			// Spread burst copies over up to two seconds so bursts look
			// like real near-simultaneous notification storms.
			jt := t.Add(time.Duration(g.rng.Int63n(int64(2 * time.Second))))
			g.emit(g.record(jt, ev.Severity, loc, ev.Component, ev.Message))
		}
	}
	return locs
}

// eventLocations returns the origin plus FanOut-1 random distinct
// locations within the event's propagation scope.
func (g *Generator) eventLocations(ev EventSpec, origin topology.Location) []topology.Location {
	if ev.FanOut <= 1 {
		return []topology.Location{origin}
	}
	scope := origin.Truncate(ev.Scope)
	out := make([]topology.Location, 1, ev.FanOut)
	out[0] = origin
	// Bounded attempts keep this terminating when the scope is smaller
	// than the requested fan-out.
	for attempts := 0; len(out) < ev.FanOut && attempts < 8*ev.FanOut; attempts++ {
		n := g.prof.Machine.RandomNodeWithin(g.rng, scope)
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// record materialises one log record, substituting variable fields in the
// message template.
func (g *Generator) record(t time.Time, sev logs.Severity, loc topology.Location, comp, msg string) logs.Record {
	return logs.Record{
		Time:      t,
		Severity:  sev,
		Location:  loc,
		Component: comp,
		Message:   g.substitute(msg),
		EventID:   -1,
	}
}

var starWords = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}

// A template is a message compiled into the variable fields substitute
// fills: each part is a literal run followed by one variable, and tail is
// the literal after the last variable. A template without variables has
// no parts and stands for its message unchanged.
type template struct {
	parts []part
	tail  string
}

type part struct {
	lit  string
	kind varKind
}

type varKind uint8

const (
	varWord   varKind = iota // "*": one of starWords
	varNum                   // "d+" or "d+.": 0..9999, the "." dropped
	varHex                   // "0xd+": 0x and eight hex digits
	varSuffix                // "<prefix>d+": 0..99 after the prefix, which ends lit
)

// compile splits a message template on single spaces and classifies each
// field the way substitute always has; literal fields and the spaces
// between fields merge into the runs around the variables.
func compile(msg string) *template {
	t := &template{}
	var lit strings.Builder
	for i, f := range strings.Split(msg, " ") {
		if i > 0 {
			lit.WriteByte(' ')
		}
		var kind varKind
		switch {
		case f == "*":
			kind = varWord
		case f == "d+" || f == "d+.":
			kind = varNum
		case f == "0xd+":
			kind = varHex
		case strings.HasSuffix(f, "d+"): // embedded numeric suffix, e.g. "sdd+"
			kind = varSuffix
			lit.WriteString(f[:len(f)-2])
		default:
			lit.WriteString(f)
			continue
		}
		t.parts = append(t.parts, part{lit: lit.String(), kind: kind})
		lit.Reset()
	}
	t.tail = lit.String()
	return t
}

// substitute replaces the variable tokens of a message template with
// concrete values: "d+" becomes a number, "0xd+" a hex literal, "*" a
// word. HELO's normalisation maps them back to the same template, so the
// round trip through raw text exercises the real preprocessing path. The
// template is compiled once per generator and the message is appended
// into g.buf, so a substituted message costs one allocation, its string.
// The rng draws are the ones the split-and-format version made, in the
// same order (ref_test.go keeps that version as the reference).
func (g *Generator) substitute(msg string) string {
	t := g.templates[msg]
	if t == nil {
		t = compile(msg)
		g.templates[msg] = t
	}
	if len(t.parts) == 0 {
		return msg
	}
	b := g.buf[:0]
	for _, p := range t.parts {
		b = append(b, p.lit...)
		switch p.kind {
		case varWord:
			b = append(b, starWords[g.rng.Intn(len(starWords))]...)
		case varNum:
			b = strconv.AppendInt(b, int64(g.rng.Intn(10000)), 10)
		case varHex:
			b = appendHex8(append(b, "0x"...), g.rng.Uint32())
		case varSuffix:
			b = strconv.AppendInt(b, int64(g.rng.Intn(100)), 10)
		}
	}
	b = append(b, t.tail...)
	g.buf = b
	return string(b)
}

// appendHex8 appends v as eight lower-case hex digits, as "%08x" formats
// a uint32.
func appendHex8(b []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>uint(shift)&0xf])
	}
	return b
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// jittered draws the event's delay with its lognormal jitter.
func (g *Generator) jittered(ev EventSpec) time.Duration {
	if ev.Delay <= 0 {
		return 0
	}
	if ev.Jitter <= 0 {
		return ev.Delay
	}
	// Lognormal with median equal to the configured delay.
	f := stats.LogNormal(g.rng, 0, ev.Jitter)
	return time.Duration(float64(ev.Delay) * f)
}
