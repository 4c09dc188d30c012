package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/ingest"
	"github.com/elsa-hpc/elsa/internal/pipeline"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/sig"
)

// pass is what one run over the staged stream produced.
type pass struct {
	records int64         // records attempted
	failed  int64         // records the program dropped, shed, quarantined or errored on
	wall    time.Duration // first Backend.Next through the last prediction written
	wait    time.Duration // open loop only: feeder time blocked on records not yet sent
	closes  []int64       // ns, per tick close in stream order: duration of the feed that closed it
	lags    []int64       // ns, per record in stream order: its predictions written - the record was due
	out     []byte        // every prediction, as the sink wrote it
	result  *elsa.PredictResult

	refreshes []elsa.RefreshStats // Monitor.Refresh rounds (offline_bgl200)
	backend   ingest.Stats
	layers    *layerInfo // the layered driver's counts
	fleet     *fleetInfo // serve_fleet
	paced     *pacedInfo // paced_socket

	// serve_fleet only: the steady phase the timings are taken over.
	steady     int64
	steadyWall time.Duration
}

// busy is the time the feeder was not waiting for its input: all of the
// wall in a closed loop, where the next record is always there.
func (p *pass) busy() time.Duration { return p.wall - p.wait }

// closer tracks, from record timestamps alone, which feed makes the
// monitor close sampling ticks: the sampler closes tick i once it has seen
// a record at least grace full ticks past i's end.
type closer struct {
	origin time.Time
	next   int // next tick index to close
}

// closing reports the tick range [from, to) the record closes (from == to
// when it closes none).
func (c *closer) closing(t time.Time) (from, to int) {
	from = c.next
	if idx := int(t.Sub(c.origin)/step) - grace; idx > c.next {
		c.next = idx
	}
	return from, c.next
}

// monitorPass is the closed loop of the serve workloads: one feeder pulls
// the staged stream through Backend.Next, feeds a fresh Monitor and writes
// what it predicts. When refresh says so it retrains from live counters
// and records the backend offset, as a refreshing daemon does. A record is
// due when the feeder asks for it, which in a closed loop is when the
// previous one is done. With a tracer the same loop also times its calls
// into each layer; without one it reads the clock once per record and
// around the feeds that close a tick.
func monitorPass(ctx context.Context, st *staged, refresh refreshPolicy, tr *tracer) (*pass, error) {
	model, err := st.model()
	if err != nil {
		return nil, err
	}
	b, err := st.open()
	if err != nil {
		return nil, err
	}
	defer b.Close()

	var out bytes.Buffer
	pw := elsa.NewPredictionWriter(&out)
	p := &pass{}
	var mon *elsa.Monitor
	var cl closer
	p.lags = make([]int64, 0, st.records)

	t0 := time.Now()
	mark, due := t0, t0
	if tr != nil {
		tr.begin(t0)
	}
	for {
		rec, err := b.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if tr != nil {
			now := time.Now()
			tr.add(lIngest, now.Sub(mark))
			tr.cur.records++
			mark = now
		}
		if mon == nil {
			cl.origin = rec.Time.Truncate(step)
			mon = model.NewMonitor(cl.origin)
		}
		p.records++
		from, to := cl.closing(rec.Time)

		var preds []elsa.Prediction
		if to > from || tr != nil {
			t := time.Now()
			preds, err = mon.Feed(rec)
			now := time.Now()
			if to > from {
				p.closes = append(p.closes, int64(now.Sub(t)))
			}
			if tr != nil {
				tr.add(lMonitor, now.Sub(t))
				mark = now
			}
		} else {
			preds, err = mon.Feed(rec)
		}
		if err != nil {
			return nil, err
		}
		if len(preds) > 0 {
			for _, pr := range preds {
				if err := pw.Write(pr); err != nil {
					return nil, err
				}
			}
			if tr != nil {
				now := time.Now()
				tr.add(lSink, now.Sub(mark))
				mark = now
			}
		}
		if refresh.due(p.records) {
			t := time.Now()
			p.refreshes = append(p.refreshes, mon.Refresh())
			mon.SetIngestOffset(b.Offset())
			if tr != nil {
				now := time.Now()
				tr.add(lCorrelate, now.Sub(t))
				mark = now
			}
		}
		if tr != nil {
			for k := from; k < to; k++ {
				tr.closeTick(k, mark)
			}
		}
		now := time.Now()
		p.lags = append(p.lags, int64(now.Sub(due)))
		due = now
	}
	if mon == nil {
		return nil, io.ErrUnexpectedEOF
	}
	p.result = mon.Close()
	if err := writeTail(pw, p.result); err != nil {
		return nil, err
	}
	end := time.Now()
	if tr != nil {
		tr.add(lMonitor, end.Sub(mark))
		tr.closeTick(cl.next, end)
	}
	p.wall = end.Sub(t0)
	p.out = out.Bytes()
	p.backend = b.Stats()
	s := p.result.Stats
	p.failed = int64(s.QuarantinedRecords+s.ShedRecords+s.LateRecords+s.DedupedRecords) + p.backend.Quarantined
	return p, nil
}

// writeTail writes the predictions Close flushed out of the still-open
// ticks: the result holds every prediction in firing order, and the ones
// Feed returned are already written.
func writeTail(pw *elsa.PredictionWriter, res *elsa.PredictResult) error {
	for _, pr := range res.Predictions[pw.Count():] {
		if err := pw.Write(pr); err != nil {
			return err
		}
	}
	return nil
}

// layerInfo is what the layered driver counted at the layer boundaries.
type layerInfo struct {
	ticks         int
	hits          int64
	checks        int64
	detectors     int
	filterWorkers int
	chainsLoaded  int
	templates     int
	learnedOnline int
	exactTicks    int
	candidates    int
	stateBytes    int
}

// layeredPass is the traced pass of serve_bgl and serve_wide: the same
// stream through the public stage functions Engine.Run documents, composed
// by the harness so each call into a layer can be timed from outside:
//
//	Backend.Next -> pipeline.StampEventID -> predict.Tick.Add
//	  -> per closed tick: Engine.DetectOutliers -> Accumulator.ObserveTick
//	     -> Engine.MatchChains + FinishTick -> PredictionWriter.Write
//
// It closes ticks by the sampler's rule (grace ticks behind the newest
// record) and must predict byte for byte what monitorPass does.
func layeredPass(ctx context.Context, st *staged, tr *tracer) (*pass, error) {
	mp, err := st.parts()
	if err != nil {
		return nil, err
	}
	b, err := st.open()
	if err != nil {
		return nil, err
	}
	defer b.Close()

	eng := predict.NewEngine(mp.inner, mp.profiles, predict.DefaultConfig())
	acc := sig.NewAccumulator(correlate.AccumConfigFor(mp.inner.Mode, mp.corr))
	res := eng.NewResult()
	info := &layerInfo{
		detectors:     len(eng.DetectorIDs()),
		filterWorkers: pipeline.New(eng, mp.org, pipeline.DefaultConfig()).FilterWorkers(),
		chainsLoaded:  eng.ChainCount(),
		templates:     mp.org.Len(),
	}

	var out bytes.Buffer
	pw := elsa.NewPredictionWriter(&out)
	p := &pass{layers: info}
	open := make(map[int]*predict.Tick)
	var cl closer
	var outliers []int
	started := false

	// closeTick runs the per-tick layers for tick k and ends its span.
	closeTick := func(k int, mark time.Time) (time.Time, error) {
		tk := open[k]
		if tk == nil {
			tk = predict.NewTick()
		} else {
			delete(open, k)
		}
		tickStart := cl.origin.Add(time.Duration(k) * step)
		hits := eng.DetectOutliers(tk, tickStart)
		now := time.Now()
		tr.add(lFilter, now.Sub(mark))
		mark = now

		outliers = outliers[:0]
		for _, h := range hits {
			outliers = append(outliers, h.Event)
		}
		if acc.Exact() {
			info.exactTicks++
		}
		acc.ObserveTick(k, tk.Counts, outliers)
		now = time.Now()
		tr.add(lAccum, now.Sub(mark))
		mark = now

		before := len(res.Predictions)
		checks := eng.MatchChains(hits, k)
		eng.FinishTick(tk, checks, k, tickStart.Add(step), res)
		now = time.Now()
		tr.add(lMatch, now.Sub(mark))
		mark = now
		info.ticks++
		info.hits += int64(len(hits))
		info.checks += int64(checks)

		if fired := res.Predictions[before:]; len(fired) > 0 {
			for _, pr := range fired {
				if err := pw.Write(pr); err != nil {
					return mark, err
				}
			}
			now = time.Now()
			tr.add(lSink, now.Sub(mark))
			mark = now
		}
		tr.closeTick(k, mark)
		return mark, nil
	}

	t0 := time.Now()
	mark := t0
	tr.begin(t0)
	last := -1
	for {
		rec, err := b.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		now := time.Now()
		tr.add(lIngest, now.Sub(mark))
		tr.cur.records++
		mark = now
		p.records++

		pipeline.StampEventID(&rec, mp.org)
		now = time.Now()
		tr.add(lHelo, now.Sub(mark))
		mark = now

		if rec.EventID >= 0 {
			acc.NoteSeverity(rec.EventID, int(rec.Severity))
		}
		now = time.Now()
		tr.add(lAccum, now.Sub(mark))
		mark = now

		if !started {
			cl.origin = rec.Time.Truncate(step)
			started = true
		}
		idx := int(rec.Time.Sub(cl.origin) / step)
		if idx < cl.next {
			p.failed++ // a straggler older than its closed tick: the sampler drops it
			continue
		}
		tk := open[idx]
		if tk == nil {
			tk = predict.NewTick()
			open[idx] = tk
		}
		tk.Add(rec)
		if idx > last {
			last = idx
		}
		from, to := cl.closing(rec.Time)
		now = time.Now()
		tr.add(lSample, now.Sub(mark))
		mark = now

		for k := from; k < to; k++ {
			if mark, err = closeTick(k, mark); err != nil {
				return nil, err
			}
		}
	}
	// Flush, as Session.Close does: every tick still holding records.
	for k := cl.next; k <= last; k++ {
		if mark, err = closeTick(k, mark); err != nil {
			return nil, err
		}
	}
	p.wall = mark.Sub(t0)
	p.out = out.Bytes()
	p.result = res
	p.backend = b.Stats()
	p.failed += p.backend.Quarantined

	info.learnedOnline = mp.org.Len() - info.templates
	info.templates = mp.org.Len()
	info.candidates = len(acc.Candidates())
	state, err := json.Marshal(acc.State())
	if err != nil {
		return nil, err
	}
	info.stateBytes = len(state)
	return p, nil
}
