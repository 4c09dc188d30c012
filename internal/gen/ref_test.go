package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/stats"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// refGenerator is the generator as it was before message templates were
// compiled, frozen: refSubstitute splits, formats and re-joins every
// variable message, and eventLocations dedups through a per-event map.
// Everything else is the same code over the same rng draws, so Generate
// must match it record for record and failure for failure. Do not
// "improve" this file: it is the reference.
type refGenerator struct {
	prof     Profile
	rng      *rand.Rand
	silences map[int][]interval
}

// RefGenerate runs the frozen reference generator. It is exported (from a
// test file) so the external test package, which can import
// internal/bench, can compare Generate against it on ScaledBGL as well.
func RefGenerate(prof Profile, seed int64, start time.Time, dur time.Duration) *Result {
	g := &refGenerator{
		prof:     prof,
		rng:      rand.New(rand.NewSource(seed)),
		silences: make(map[int][]interval),
	}
	return g.Generate(start, dur)
}

func (g *refGenerator) Generate(start time.Time, dur time.Duration) *Result {
	end := start.Add(dur)
	res := &Result{Profile: g.prof.Name, Start: start, End: end}
	for _, a := range g.prof.Archetypes {
		g.emitArchetype(res, a, start, end)
	}
	for _, d := range g.prof.Daemons {
		g.emitDaemon(res, d, start, end)
	}
	logs.SortByTime(res.Records)
	sort.Slice(res.Failures, func(i, j int) bool { return res.Failures[i].Time.Before(res.Failures[j].Time) })
	return res
}

func (g *refGenerator) emitDaemon(res *Result, d DaemonSpec, start, end time.Time) {
	if d.PerRack && d.Period > 0 && !g.prof.Machine.IsFlat() {
		for rack := 0; rack < g.prof.Machine.Racks; rack++ {
			loc := topology.Location{Rack: rack, Midplane: -1, NodeCard: -1, Slot: -1, Unit: -1}
			t := start.Add(time.Duration(g.rng.Int63n(int64(d.Period))))
			for t.Before(end) {
				if !g.silenced(rack, t) {
					res.Records = append(res.Records, g.record(t, d.Severity, loc, d.Component, d.Message))
				}
				t = t.Add(d.Period)
			}
		}
		return
	}
	if d.Period > 0 {
		t := start.Add(time.Duration(g.rng.Int63n(int64(d.Period))))
		for t.Before(end) {
			res.Records = append(res.Records, g.record(t, d.Severity, g.daemonLoc(d), d.Component, d.Message))
			t = t.Add(d.Period)
		}
		return
	}
	if d.Rate <= 0 {
		return
	}
	mean := 1 / d.Rate
	t := start.Add(secs(stats.Exponential(g.rng, mean)))
	for t.Before(end) {
		res.Records = append(res.Records, g.record(t, d.Severity, g.daemonLoc(d), d.Component, d.Message))
		t = t.Add(secs(stats.Exponential(g.rng, mean)))
	}
}

func (g *refGenerator) silenced(rack int, t time.Time) bool {
	for _, iv := range g.silences[rack] {
		if !t.Before(iv.from) && t.Before(iv.to) {
			return true
		}
	}
	return false
}

func (g *refGenerator) daemonLoc(d DaemonSpec) topology.Location {
	if d.PerNode {
		return g.prof.Machine.RandomNode(g.rng)
	}
	return topology.System
}

func (g *refGenerator) emitArchetype(res *Result, a FaultArchetype, start, end time.Time) {
	t := start.Add(secs(stats.Exponential(g.rng, a.MTBF.Seconds())))
	for t.Before(end) {
		g.emitCascade(res, a, t, end)
		t = t.Add(secs(stats.Exponential(g.rng, a.MTBF.Seconds())))
	}
}

func (g *refGenerator) emitCascade(res *Result, a FaultArchetype, t time.Time, end time.Time) {
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

func (g *refGenerator) origin(a FaultArchetype) topology.Location {
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

func (g *refGenerator) emitEvent(res *Result, ev EventSpec, t time.Time, origin topology.Location) []topology.Location {
	locs := g.eventLocations(ev, origin)
	burst := ev.Burst
	if burst < 1 {
		burst = 1
	}
	for _, loc := range locs {
		for b := 0; b < burst; b++ {
			jt := t.Add(time.Duration(g.rng.Int63n(int64(2 * time.Second))))
			res.Records = append(res.Records, g.record(jt, ev.Severity, loc, ev.Component, ev.Message))
		}
	}
	return locs
}

func (g *refGenerator) eventLocations(ev EventSpec, origin topology.Location) []topology.Location {
	if ev.FanOut <= 1 {
		return []topology.Location{origin}
	}
	scope := origin.Truncate(ev.Scope)
	seen := map[topology.Location]bool{origin: true}
	out := []topology.Location{origin}
	for attempts := 0; len(out) < ev.FanOut && attempts < 8*ev.FanOut; attempts++ {
		n := g.prof.Machine.RandomNodeWithin(g.rng, scope)
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func (g *refGenerator) record(t time.Time, sev logs.Severity, loc topology.Location, comp, msg string) logs.Record {
	return logs.Record{
		Time:      t,
		Severity:  sev,
		Location:  loc,
		Component: comp,
		Message:   refSubstitute(g.rng, msg),
		EventID:   -1,
	}
}

// refSubstitute is the frozen body of the pre-compilation substitute.
func refSubstitute(rng *rand.Rand, msg string) string {
	if !strings.ContainsAny(msg, "*+") {
		return msg
	}
	fields := strings.Split(msg, " ")
	for i, f := range fields {
		switch {
		case f == "*":
			fields[i] = starWords[rng.Intn(len(starWords))]
		case f == "d+" || f == "d+.":
			fields[i] = fmt.Sprintf("%d", rng.Intn(10000))
		case f == "0xd+":
			fields[i] = fmt.Sprintf("0x%08x", rng.Uint32())
		case strings.HasSuffix(f, "d+"):
			fields[i] = f[:len(f)-2] + fmt.Sprintf("%d", rng.Intn(100))
		}
	}
	return strings.Join(fields, " ")
}

func (g *refGenerator) jittered(ev EventSpec) time.Duration {
	if ev.Delay <= 0 {
		return 0
	}
	if ev.Jitter <= 0 {
		return ev.Delay
	}
	f := stats.LogNormal(g.rng, 0, ev.Jitter)
	return time.Duration(float64(ev.Delay) * f)
}
