package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Layers a traced pass attributes time to. A layer is named after the
// module whose public functions the harness times from outside.
const (
	lIngest    = iota // Backend.Next: frame read + logs.ParseRecord
	lHelo             // pipeline.StampEventID over the helo organizer
	lSample           // predict.Tick.Add and the tick-close decision
	lFilter           // Engine.DetectOutliers
	lAccum            // sig.Accumulator.NoteSeverity + ObserveTick
	lMatch            // Engine.MatchChains + FinishTick
	lSink             // elsa.PredictionWriter.Write
	lMonitor          // Monitor.Feed as a whole, where the pass drives a Monitor
	lFleet            // Coordinator.Feed as a whole
	lCorrelate        // Monitor.Refresh
	numLayers
)

var layerNames = [numLayers]string{
	"ingest", "helo", "pipeline", "filter", "accum", "match", "sink", "monitor", "fleet", "correlate",
}

// tickSpan is one span of a traced pass: the wall interval that ends when
// a sampling tick closes (id = tick index). Its children are the layers:
// per-record layers are aggregated within the span (count + busy ns),
// per-tick layers are entered once. The span's self time — its wall minus
// its children — is what the loop spent outside every timed call.
type tickSpan struct {
	tick       int
	start, end int64 // ns since the trace began
	records    int
	busy       [numLayers]int64
	count      [numLayers]int32
}

// phaseSpan is a coarse span around one call into a layer outside the
// per-tick loop (training, batch predict, snapshot, resume).
type phaseSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"span"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write puts them on disk when the run ends.
type tracer struct {
	t0     time.Time
	ticks  []tickSpan
	cur    tickSpan
	phases []phaseSpan
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens the first tick span of a pass at now.
func (t *tracer) begin(now time.Time) {
	t.cur = tickSpan{start: int64(now.Sub(t.t0))}
}

// add charges d to layer within the open tick span.
func (t *tracer) add(layer int, d time.Duration) {
	t.cur.busy[layer] += int64(d)
	t.cur.count[layer]++
}

// closeTick ends the open span at now as tick's span and opens the next.
func (t *tracer) closeTick(tick int, now time.Time) {
	t.cur.tick = tick
	t.cur.end = int64(now.Sub(t.t0))
	t.ticks = append(t.ticks, t.cur)
	t.cur = tickSpan{start: t.cur.end}
}

// phase records a coarse span and returns its id.
func (t *tracer) phase(name string, parent int, start, end time.Time) int {
	id := len(t.phases)
	t.phases = append(t.phases, phaseSpan{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// totals sums the tick spans: their wall, each layer's busy time and call
// count, and the records they covered.
func (t *tracer) totals() (wall int64, busy [numLayers]int64, count [numLayers]int64, records int) {
	for i := range t.ticks {
		s := &t.ticks[i]
		wall += s.end - s.start
		records += s.records
		for l := 0; l < numLayers; l++ {
			busy[l] += s.busy[l]
			count[l] += int64(s.count[l])
		}
	}
	return wall, busy, count, records
}

// write stores the spans as JSON lines: one line per tick span with its
// layer children inline, then the phase spans.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	type child struct {
		Layer string `json:"span"`
		Count int32  `json:"count"`
		Busy  int64  `json:"busy_ns"`
	}
	type line struct {
		Name     string  `json:"span"`
		Tick     int     `json:"id"`
		Start    int64   `json:"start_ns"`
		End      int64   `json:"end_ns"`
		Records  int     `json:"records"`
		Self     int64   `json:"self_ns"`
		Children []child `json:"children"`
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	enc := json.NewEncoder(bw)
	for i := range t.ticks {
		s := &t.ticks[i]
		ln := line{Name: "tick", Tick: s.tick, Start: s.start, End: s.end, Records: s.records, Self: s.end - s.start}
		for l := 0; l < numLayers; l++ {
			if s.count[l] == 0 {
				continue
			}
			ln.Children = append(ln.Children, child{Layer: layerNames[l], Count: s.count[l], Busy: s.busy[l]})
			ln.Self -= s.busy[l]
		}
		if err := enc.Encode(ln); err != nil {
			f.Close()
			return err
		}
	}
	for _, p := range t.phases {
		if err := enc.Encode(p); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
