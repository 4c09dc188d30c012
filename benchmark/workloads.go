package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/bench"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/logs"
)

// workload is one set of inputs the benchmark runs. stage is its set-up
// (timed as setup_s), pass one untraced timed pass over the staged stream,
// layers the traced run that fills the per-layer ledger.
type workload struct {
	name   string
	stage  func(e *env) (*staged, error)
	pass   func(ctx context.Context, e *env, st *staged) (*pass, error)
	layers func(ctx context.Context, e *env, st *staged, r *report, tr *tracer) error
}

var workloads = []workload{
	{
		name: "serve_bgl",
		stage: func(e *env) (*staged, error) {
			return stage(e, gen.BlueGeneL(), e.size.bgl, 0, false)
		},
		pass: func(ctx context.Context, e *env, st *staged) (*pass, error) {
			return monitorPass(ctx, st, refreshPolicy{}, nil)
		},
		layers: serveLayers,
	},
	{
		name: "serve_wide",
		stage: func(e *env) (*staged, error) {
			return stage(e, bench.ScaledBGL(e.size.wideEvents), e.size.wide, 0, false)
		},
		pass: func(ctx context.Context, e *env, st *staged) (*pass, error) {
			return monitorPass(ctx, st, refreshPolicy{}, nil)
		},
		layers: serveLayers,
	},
	{
		name: "serve_fleet",
		stage: func(e *env) (*staged, error) {
			return stage(e, gen.BlueGeneL(), e.size.fleetSteady+e.size.fleetFailover, e.size.fleetSteady, false)
		},
		pass: func(ctx context.Context, e *env, st *staged) (*pass, error) {
			return fleetPass(ctx, e, st, nil)
		},
		layers: fleetLayers,
	},
	{
		name: "offline_bgl200",
		stage: func(e *env) (*staged, error) {
			return stage(e, bench.ScaledBGL(e.size.wideEvents), e.size.live, 0, false)
		},
		pass: func(ctx context.Context, e *env, st *staged) (*pass, error) {
			return monitorPass(ctx, st, e.size.refresh, nil)
		},
		layers: offlineLayers,
	},
	{
		name: "paced_socket",
		stage: func(e *env) (*staged, error) {
			return stage(e, gen.BlueGeneL(), e.size.paced, 0, true)
		},
		pass: func(ctx context.Context, e *env, st *staged) (*pass, error) {
			return pacedPass(ctx, e, st, nil)
		},
		layers: pacedLayers,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runUntraced is the end-to-end run: set up at least e.size.setups times
// and for e.size.setupFor (setup_s is the median, over more set-ups the
// cheaper one is), then timed passes with tracing off for e.seconds, each over a
// fresh monitor or coordinator and the same staged stream. Every pass does
// the same work, and the host it shares only ever adds time to it, so each
// timing is the fastest repeat of its unit of work: the fastest pass for
// the rate, and for tick closes and lags each tick's and each record's
// fastest repeat across the passes, with the quantiles taken over those. A
// stall that lands on a tick in one pass does not land on it in all, and a
// slow spell of the host does not last through every pass of most runs.
// README.md, "Steadiness", has the measurements behind the rule.
func runUntraced(ctx context.Context, w workload, e *env, r *report) error {
	var st *staged
	var setups []float64
	for begin := time.Now(); len(setups) < e.size.setups || time.Since(begin) < e.size.setupFor; {
		t := time.Now()
		var err error
		if st, err = w.stage(e); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.set("setup_s", median(setups), len(setups))

	var first *pass
	var rate []float64
	var tick, lag samples
	sameUnits := true
	begin := time.Now()
	for n := 0; n < e.size.minPasses || time.Since(begin) < e.seconds; n++ {
		p, err := w.pass(ctx, e, st)
		if err != nil {
			return fmt.Errorf("pass %d: %w", n, err)
		}
		r.attempted += p.records
		r.failed += p.failed
		if first == nil {
			first = p
		} else {
			r.check(fmt.Sprintf("pass %d predicts what pass 0 does", n), bytes.Equal(p.out, first.out), p.records)
		}
		rate = append(rate, p.rate())
		sameUnits = tick.keepFastest(p.closes) && lag.keepFastest(p.lags) && sameUnits
	}
	r.check("every pass timed the same ticks and records", sameUnits, r.attempted)
	r.set("records_per_s", slices.Max(rate), len(rate))
	r.set("tick_close_us_p50", tick.quantile(0.50)/1e3, tick.n())
	r.set("tick_close_us_p99", tick.quantile(0.99)/1e3, tick.n())
	r.set("lag_ms_p99", lag.quantile(0.99)/1e6, lag.n())

	// Every pass predicted the same bytes, so the first one's score is the
	// run's: it depends on the code and the log alone, never on timing.
	o := elsa.Evaluate(first.result, st.failures, elsa.DefaultMatchConfig())
	r.set("precision", o.Precision, o.Predictions)
	r.set("recall", o.Recall, o.FailuresTotal)

	rss, err := peakRSS()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, 1)
	return nil
}

// timedRecords is the part of the pass the timings are taken over: all of
// it, except on serve_fleet, where the failover phase is measured on its
// own.
func (p *pass) timedRecords() int64 {
	if p.steady > 0 {
		return p.steady
	}
	return p.records
}

// rate is the pass's records per second of feeder time: records over the
// time the feeder was not waiting for a record that had not been sent yet.
func (p *pass) rate() float64 {
	if p.steady > 0 {
		return float64(p.steady) / p.steadyWall.Seconds()
	}
	return float64(p.records) / p.busy().Seconds()
}

// refPass runs one untraced pass with the runtime's counters read around
// it: the reference the traced pass is compared with.
func refPass(r *report, run func() (*pass, error)) (*pass, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := run()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	r.attempted += p.records
	r.failed += p.failed
	r.set("pipeline.allocs_per_record", float64(after.Mallocs-before.Mallocs)/float64(p.records), int(p.records))
	r.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC), 1)
	r.set("runtime.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
	r.set("runtime.heap_peak_mb", float64(after.HeapSys)/1e6, 1)
	return p, nil
}

// tracedPairs runs the untraced reference and the traced pass alternately,
// e.size.pairs times, and keeps the fastest of each: a slow spell of the
// host only ever adds time, and the two are held against each other. Every
// traced pass must predict what its reference does. The kept traced pass's
// tick spans become tr's; the runtime counters are the last reference's.
func tracedPairs(r *report, e *env, tr *tracer, ref func() (*pass, error), traced func(*tracer) (*pass, error)) (*pass, *pass, error) {
	var bestRef, bestTraced *pass
	for i := 0; i < e.size.pairs; i++ {
		p, err := refPass(r, ref)
		if err != nil {
			return nil, nil, err
		}
		ptr := &tracer{t0: tr.t0}
		q, err := traced(ptr)
		if err != nil {
			return nil, nil, err
		}
		r.attempted += q.records
		r.failed += q.failed
		r.check("traced pass predicts what the untraced pass does", bytes.Equal(p.out, q.out), q.records)
		if bestRef == nil || p.busy() < bestRef.busy() {
			bestRef = p
		}
		if bestTraced == nil || q.busy() < bestTraced.busy() {
			bestTraced = q
			tr.ticks = ptr.ticks
		}
	}
	reconcile(r, e, bestRef, bestTraced, tr)
	return bestRef, bestTraced, nil
}

// reconcile holds the traced pass's ledger against the untraced reference
// and reports the layers every traced pass has: ingest, sink and the trace
// itself. In a traced loop nearly every clock reading ends one layer's span
// and begins the next, so its spans cover its own wall whatever the layers
// do; what can fail to add up is their sum against the time an untraced
// pass — on serve_bgl and serve_wide the real Monitor, not the layered
// driver — needed for the same records.
func reconcile(r *report, e *env, ref, traced *pass, tr *tracer) {
	wall, busy, _, _ := tr.totals()
	var layers int64
	for _, b := range busy {
		layers += b
	}
	layers -= int64(traced.wait) // waiting for the schedule is nobody's work
	un := math.Abs(1 - float64(layers)/float64(ref.busy()))
	r.set("trace.unattributed_share", un, len(tr.ticks))
	r.check(fmt.Sprintf("layer self times account for the untraced pass (unattributed %.3f)", un), un <= e.size.maxUnattributed, traced.records)
	r.set("trace.overhead_share", float64(traced.busy())/float64(ref.busy())-1, 1)

	// The tails of one pass as it ran, host and collector included: what
	// the end-to-end run's per-unit fastest leaves out.
	closes, lags := samples{ns: slices.Clone(ref.closes)}, samples{ns: slices.Clone(ref.lags)}
	r.set("runtime.tick_close_us_p99_one_pass", closes.quantile(0.99)/1e3, closes.n())
	r.set("runtime.lag_ms_p99_one_pass", lags.quantile(0.99)/1e6, lags.n())

	n := float64(traced.records)
	r.set("ingest.next_ns_per_record", float64(busy[lIngest])/n, int(traced.records))
	r.set("ingest.next_share", float64(busy[lIngest])/float64(wall), int(traced.records))
	r.set("ingest.quarantined", float64(traced.backend.Quarantined), 1)
	r.set("ingest.resyncs", float64(traced.backend.Resyncs), 1)
	preds := len(traced.result.Predictions)
	r.set("sink.predictions", float64(preds), 1)
	r.set("sink.share", float64(busy[lSink])/float64(wall), preds)
	if preds > 0 {
		r.set("sink.write_ns_per_prediction", float64(busy[lSink])/float64(preds), preds)
	}
	if busy[lMonitor] > 0 {
		r.set("monitor.feed_ns_per_record", float64(busy[lMonitor])/n, int(traced.records))
		r.set("monitor.feed_share", float64(busy[lMonitor])/float64(wall), int(traced.records))
	}
}

// stagedMetrics reports what set-up measured about the staged stream.
func stagedMetrics(r *report, st *staged) error {
	if st.segs == "" {
		return nil
	}
	r.set("ingest.append_ns_per_record", float64(st.appendWall)/float64(st.records), st.records)
	r.set("append_records_per_s", float64(st.records)/st.appendWall.Seconds(), st.records)
	entries, err := os.ReadDir(st.segs)
	if err != nil {
		return err
	}
	var size int64
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".seg" {
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	r.set("ingest.bytes_per_record", float64(size)/float64(st.records), st.records)
	return nil
}

// stageWalls reports the program's own per-stage timers beside what the
// harness measured: feedWall is the time the untraced pass spent inside
// Monitor.Feed, so whatever the stage timers do not cover is work the
// program does not account for — the accumulator first of all.
func stageWalls(r *report, ref *pass, feedWall time.Duration) {
	s := ref.result.Stats
	r.set("pipeline.late_records", float64(s.LateRecords), 1)
	r.set("pipeline.shed_records", float64(s.ShedRecords), 1)
	r.set("pipeline.max_tick_records", float64(s.MaxTickMessages), s.Ticks)
	var covered time.Duration
	for _, stg := range s.Stages {
		share := float64(stg.Wall) / float64(feedWall)
		switch stg.Name {
		case "template":
			r.set("pipeline.stage_template_wall_share", share, int(stg.In))
		case "filter":
			r.set("pipeline.stage_filter_wall_share", share, int(stg.In))
		case "match":
			r.set("pipeline.stage_match_wall_share", share, int(stg.In))
		}
		covered += stg.Wall
	}
	r.set("pipeline.stage_unaccounted_share", 1-float64(covered)/float64(feedWall), int(ref.records))
}

// logsProbe times the record codec over the corpus: ParseRecord is what
// every backend does per record, Record.String what every writer does.
func logsProbe(r *report, recs []logs.Record) error {
	lines := make([]string, len(recs))
	t := time.Now()
	for i := range recs {
		lines[i] = recs[i].String()
	}
	format := time.Since(t)
	t = time.Now()
	for _, ln := range lines {
		if _, err := logs.ParseRecord(ln); err != nil {
			return err
		}
	}
	parse := time.Since(t)
	r.set("logs.format_ns_per_record", float64(format)/float64(len(recs)), len(recs))
	r.set("logs.parse_ns_per_record", float64(parse)/float64(len(recs)), len(recs))
	return nil
}

// probeRecords bounds the corpus slice the standalone probes walk.
const probeRecords = 100000

// serveLayers is the traced run of serve_bgl and serve_wide: untraced
// Monitor passes for reference against passes of the layered driver.
func serveLayers(ctx context.Context, e *env, st *staged, r *report, tr *tracer) error {
	ref, traced, err := tracedPairs(r, e, tr,
		func() (*pass, error) { return monitorPass(ctx, st, refreshPolicy{}, nil) },
		func(tr *tracer) (*pass, error) { return layeredPass(ctx, st, tr) })
	if err != nil {
		return err
	}
	if err := stagedMetrics(r, st); err != nil {
		return err
	}
	info := traced.layers

	wall, busy, _, _ := tr.totals()
	n := float64(traced.records)
	ticks := float64(info.ticks)
	share := func(l int) float64 { return float64(busy[l]) / float64(wall) }
	r.set("helo.stamp_ns_per_record", float64(busy[lHelo])/n, int(traced.records))
	r.set("helo.stamp_share", share(lHelo), int(traced.records))
	r.set("helo.templates", float64(info.templates), 1)
	r.set("helo.learned_online", float64(info.learnedOnline), 1)
	r.set("pipeline.sample_ns_per_record", float64(busy[lSample])/n, int(traced.records))
	r.set("pipeline.filter_workers", float64(info.filterWorkers), 1)
	r.set("filter.detect_us_per_tick", float64(busy[lFilter])/1e3/ticks, info.ticks)
	r.set("filter.detect_share", share(lFilter), info.ticks)
	r.set("filter.hits_per_tick", float64(info.hits)/ticks, info.ticks)
	r.set("filter.detectors", float64(info.detectors), 1)
	r.set("accum.observe_us_per_tick", float64(busy[lAccum])/1e3/ticks, info.ticks)
	r.set("accum.observe_share", share(lAccum), info.ticks)
	r.set("accum.exact_regime_share", float64(info.exactTicks)/ticks, info.ticks)
	r.set("accum.candidates", float64(info.candidates), 1)
	r.set("accum.state_bytes", float64(info.stateBytes), 1)
	r.set("match.tick_us_per_tick", float64(busy[lMatch])/1e3/ticks, info.ticks)
	r.set("match.share", share(lMatch), info.ticks)
	r.set("match.checks_per_tick", float64(info.checks)/ticks, info.ticks)
	r.set("match.chains_loaded", float64(info.chainsLoaded), 1)
	r.set("match.predictions", float64(len(traced.result.Predictions)), 1)

	// The untraced pass ran the same Backend.Next and sink calls, so its
	// time inside Monitor.Feed is its wall minus what they cost here.
	feedWall := ref.wall - time.Duration(busy[lIngest]+busy[lSink])
	layers := busy[lHelo] + busy[lSample] + busy[lFilter] + busy[lAccum] + busy[lMatch]
	r.set("pipeline.session_overhead_ns_per_record", (float64(feedWall)-float64(layers))/n, int(traced.records))
	stageWalls(r, ref, feedWall)

	recs, err := st.drain(ctx, probeRecords)
	if err != nil {
		return err
	}
	return logsProbe(r, recs)
}

// fleetLayers is the traced run of serve_fleet.
func fleetLayers(ctx context.Context, e *env, st *staged, r *report, tr *tracer) error {
	ref, _, err := tracedPairs(r, e, tr,
		func() (*pass, error) { return fleetPass(ctx, e, st, nil) },
		func(tr *tracer) (*pass, error) { return fleetPass(ctx, e, st, tr) })
	if err != nil {
		return err
	}
	if err := stagedMetrics(r, st); err != nil {
		return err
	}
	refInfo := ref.fleet

	wall, busy, count, _ := tr.totals()
	feedNs := float64(busy[lFleet]) / float64(count[lFleet])
	r.set("fleet.feed_ns_per_record", feedNs, int(count[lFleet]))
	r.set("fleet.feed_share", float64(busy[lFleet])/float64(wall), int(count[lFleet]))

	// The bare monitor over the steady phase's records, from memory: what
	// the same records cost without routing, journal, snapshots and merge.
	recs, err := st.drain(ctx, st.phase1)
	if err != nil {
		return err
	}
	_, bareWall, err := barePass(st, recs)
	if err != nil {
		return err
	}
	r.set("fleet.overhead_ns_per_record", feedNs-float64(bareWall)/float64(len(recs)), len(recs))
	r.set("fleet.route_ns_per_record", routeProbe(recs, fleetShards), len(recs))

	// A one-shard fleet is proven byte-identical to the bare monitor.
	if len(recs) > e.size.equivRecords {
		recs = recs[:e.size.equivRecords]
	}
	want, _, err := barePass(st, recs)
	if err != nil {
		return err
	}
	got, err := oneShardFleet(st, recs, e.size.snapshotEvery)
	if err != nil {
		return err
	}
	r.attempted += int64(len(recs))
	r.check("one-shard fleet predicts what the bare monitor does", bytes.Equal(want, got), int64(len(recs)))

	fs := refInfo.stats
	var maxRecs, sumRecs, snapshots, gaps, short int64
	for _, sh := range fs.Shards {
		if sh.Records > maxRecs {
			maxRecs = sh.Records
		}
		sumRecs += sh.Records
		snapshots += sh.Snapshots
		gaps += sh.GapEntries
		short += sh.ReplayShort
	}
	r.set("fleet.shard_skew", float64(maxRecs)*float64(len(fs.Shards))/float64(sumRecs), len(fs.Shards))
	r.set("fleet.scope_keys", float64(fs.Scopes), 1)
	r.set("fleet.snapshots", float64(snapshots), 1)
	r.set("fleet.failover_ms_p50", refInfo.failovers.quantile(0.5)/1e6, refInfo.failovers.n())
	r.set("fleet.failover_ms_max", refInfo.failovers.max()/1e6, refInfo.failovers.n())
	r.set("fleet.degraded_predictions", float64(fs.Degraded), 1)
	r.set("fleet.gap_entries", float64(gaps), 1)
	r.set("fleet.lost_entries", float64(fs.Lost), 1)
	r.set("fleet.replay_short", float64(short), 1)
	r.check("no failover replay came up short", short == 0, ref.records)
	r.check(fmt.Sprintf("every killed shard failed over (%d of %d)", refInfo.failovers.n(), refInfo.kills),
		refInfo.failovers.n() == refInfo.kills, ref.records)
	return nil
}

// offlineLayers is the traced run of offline_bgl200: the batch phases,
// then the refreshing live monitor untraced and traced, then snapshot and
// resume.
func offlineLayers(ctx context.Context, e *env, st *staged, r *report, tr *tracer) error {
	ti := trainPhase(st, e.size.repeats, tr)
	r.set("train_s", median(ti.whole), len(ti.whole))
	r.set("helo.assign_ms", ti.assignMs, len(st.train.Records))
	r.set("correlate.train_ms", ti.trainMs, 1)
	r.set("sig.all_pairs_ms", ti.allPairs, 1)
	r.set("sig.pairs_scored", float64(ti.scored), 1)
	r.set("sig.pairs_pruned_share", ti.pruned, 1)
	r.set("gradual.mine_ms", ti.mineMs, 1)
	r.set("gradual.chains", float64(ti.chains), 1)
	r.set("location.extract_ms", ti.extractMs, 1)

	rates, outs, day, err := predictPhase(st, e, tr)
	if err != nil {
		return err
	}
	r.set("predict_records_per_s", median(rates), len(rates))
	r.attempted += int64(len(outs) * len(day.Records))
	for i := range outs[1:] {
		r.check(fmt.Sprintf("Model.Predict run %d predicts what run 0 does", i+1), bytes.Equal(outs[i+1], outs[0]), int64(len(day.Records)))
	}

	ref, traced, err := tracedPairs(r, e, tr,
		func() (*pass, error) { return monitorPass(ctx, st, e.size.refresh, nil) },
		func(tr *tracer) (*pass, error) { return monitorPass(ctx, st, e.size.refresh, tr) })
	if err != nil {
		return err
	}
	if err := stagedMetrics(r, st); err != nil {
		return err
	}
	wall, busy, _, _ := tr.totals()
	stageWalls(r, ref, ref.wall-time.Duration(busy[lIngest]+busy[lSink]+busy[lCorrelate]))
	r.set("correlate.refresh_share", float64(busy[lCorrelate])/float64(wall), len(traced.refreshes))

	var durs, dirty, scored []float64
	var remined int
	var longest float64
	for _, rs := range ref.refreshes {
		d := ms(rs.Duration)
		durs = append(durs, d)
		if d > longest {
			longest = d
		}
		dirty = append(dirty, float64(rs.Dirty))
		scored = append(scored, float64(rs.Scored))
		if rs.Remined {
			remined++
		}
	}
	if n := len(ref.refreshes); n > 0 {
		r.set("refresh_ms_p50", median(durs), n)
		r.set("correlate.refresh_ms_max", longest, n)
		r.set("correlate.refresh_remine_share", float64(remined)/float64(n), n)
		r.set("correlate.refresh_scored_p50", median(scored), n)
		r.set("accum.dirty_pairs_p50", median(dirty), n)
	}

	pi, err := persistPhase(ctx, st, e, tr)
	if err != nil {
		return err
	}
	r.set("snapshot_ms", median(pi.snapshotMs), len(pi.snapshotMs))
	r.set("resume_ms", median(pi.resumeMs), len(pi.resumeMs))
	r.set("persist.snapshot_bytes", float64(pi.snapshotBytes), 1)
	r.set("persist.model_bytes", float64(len(st.blob)), 1)
	r.set("persist.model_load_ms", median(pi.loadMs), len(pi.loadMs))
	r.set("persist.resume_decode_ms", median(pi.decodeMs), len(pi.decodeMs))
	r.set("ingest.seek_ms", median(pi.seekMs), len(pi.seekMs))
	r.attempted += pi.tailRecords
	r.check("resumed monitor's tail predicts what the uninterrupted monitor's does", pi.tailEqual, pi.tailRecords)
	return nil
}

// pacedLayers is the traced run of paced_socket: untraced and traced runs
// of the open loop.
func pacedLayers(ctx context.Context, e *env, st *staged, r *report, tr *tracer) error {
	ref, traced, err := tracedPairs(r, e, tr,
		func() (*pass, error) { return pacedPass(ctx, e, st, nil) },
		func(tr *tracer) (*pass, error) { return pacedPass(ctx, e, st, tr) })
	if err != nil {
		return err
	}
	_, busy, _, _ := tr.totals()
	stageWalls(r, ref, time.Duration(busy[lMonitor]))

	n := int(ref.records)
	lag := samples{ns: slices.Clone(ref.lags)}
	r.set("lag_ms_p50", lag.quantile(0.50)/1e6, n)
	r.set("ingest.generator_late_ms_p99", ref.paced.late.quantile(0.99)/1e6, n)
	r.set("ingest.producer_write_ns_per_record", float64(ref.paced.writeNs)/float64(n), n)
	r.set("ingest.backlog_end_records", float64(ref.paced.backlog), 1)
	r.set("ingest.socket_wait_share", float64(traced.wait)/float64(traced.wall), int(traced.records))
	var frame int64
	for i := range st.mem {
		frame += int64(len(st.mem[i].String())) + 8
	}
	r.set("ingest.bytes_per_record", float64(frame)/float64(len(st.mem)), len(st.mem))
	return nil
}

// peakRSS is the process's resident-set high-water mark in MB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, ln := range bytes.Split(data, []byte("\n")) {
		var kb float64
		if _, err := fmt.Sscanf(string(ln), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1e3, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// workloadNames lists the workloads in their fixed order.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
