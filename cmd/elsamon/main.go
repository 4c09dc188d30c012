// Command elsamon is the online monitor daemon: it loads a trained model,
// tails a log stream and prints failure forecasts as soon as they fire —
// the deployment shape of the paper's online phase.
//
// Usage:
//
//	elsa -log history.log -train-days 5 -save model.json
//	tail -f /var/log/system.log | elsamon -model model.json -format syslog
//
// Besides stdin, -ingest selects a pluggable backend (package
// internal/ingest): a flat log file, a unix/TCP socket speaking
// CRC-framed records, or a segmented append-only log directory that the
// monitor can tail across segment rolls and resume by offset:
//
//	elsamon -model model.json -ingest segdir -in /var/lib/elsa/log -follow
//	elsamon -model model.json -ingest socket -listen unix:/tmp/elsa.sock
//
// Each prediction is printed as one line:
//
//	PREDICT <expected-time> lead=<window> scope=<scope> at=<trigger> event=<template>
//
// For crash resilience, -snapshot periodically persists the monitor's
// online state (atomically, via rename); after a crash or restart,
// -resume continues mid-stream from the last snapshot — no retraining,
// no re-emitted predictions:
//
//	elsamon -model model.json -snapshot mon.snap < stream
//	elsamon -model model.json -resume mon.snap < rest-of-stream
//
// With -refresh-every, the monitor periodically retrains its correlation
// chains from statistics accumulated on the live stream itself — no
// replay, no restart; refreshed chains are live for the next tick and
// ride in snapshots. A refresh scores a sliding window as long as the
// model's training span, so chains follow the machine as it changes; a
// new chain appears at the latest 16 rounds after its events first
// correlate, so the cadence times 16 is the admission delay to budget:
//
//	elsamon -model model.json -refresh-every 50000 < stream
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/ingest"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "elsamon:", err)
		os.Exit(1)
	}
}

// run executes one daemon invocation. Flags live on a private FlagSet and
// all I/O goes through the parameters, so tests drive it in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("elsamon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelPath = fs.String("model", "", "trained model (from elsa -save) (required)")
		formatS   = fs.String("format", "canonical", "input format: canonical, bgl or syslog")
		year      = fs.Int("year", 0, "year completing syslog timestamps (0 = current)")
		showLate  = fs.Bool("late", false, "also print predictions whose window has already closed")
		snapPath  = fs.String("snapshot", "", "periodically write the monitor state to this path (atomic rename)")
		snapEvery = fs.Int("snapshot-every", 10000, "records between periodic snapshots (with -snapshot)")
		resumeP   = fs.String("resume", "", "resume the monitor from a snapshot written by -snapshot")
		ingestS   = fs.String("ingest", "", "ingest backend: file, socket or segdir (default: lines on stdin)")
		inPath    = fs.String("in", "", "input path: log file (-ingest file) or segment directory (-ingest segdir)")
		listenS   = fs.String("listen", "", "listen address as net:addr, e.g. unix:/tmp/elsa.sock or tcp:127.0.0.1:7700 (-ingest socket)")
		follow    = fs.Bool("follow", false, "with -ingest segdir: tail the directory for new records instead of stopping at the end")
		refEvery  = fs.Int("refresh-every", 0, "records between incremental retraining rounds over a sliding window of the live stream, as long as the training span; a new chain appears within 16 rounds (0 = never)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("-model is required")
	}
	if *snapEvery <= 0 {
		return fmt.Errorf("-snapshot-every must be positive")
	}
	if *refEvery < 0 {
		return fmt.Errorf("-refresh-every must be non-negative")
	}
	format, err := elsa.ParseLogFormat(*formatS)
	if err != nil {
		return err
	}
	mf, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	model, err := elsa.LoadModel(mf)
	mf.Close()
	if err != nil {
		return err
	}
	feed := "stdin"
	if *ingestS != "" {
		feed = "-ingest " + *ingestS
	}
	fmt.Fprintf(stderr, "elsamon: model with %d event types, %d chains loaded; waiting for records (%s)\n",
		model.EventCount(), len(model.PredictiveChains()), feed)

	var monitor *elsa.Monitor
	if *resumeP != "" {
		sf, err := os.Open(*resumeP)
		if err != nil {
			return err
		}
		monitor, err = model.ResumeMonitor(sf)
		sf.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "elsamon: resumed from %s\n", *resumeP)
	}

	var b ingest.Backend
	if *ingestS == "" {
		decode, err := elsa.LineDecoder(format, *year)
		if err != nil {
			return err
		}
		b = ingest.NewLines(stdin, decode)
	} else {
		if *formatS != "canonical" {
			return fmt.Errorf("-ingest backends carry canonical records; -format must stay canonical")
		}
		if b, err = ingest.Open(*ingestS, *inPath, *listenS, *follow); err != nil {
			return err
		}
	}
	defer b.Close()
	if monitor != nil {
		if off, ok := monitor.IngestOffset(); ok {
			switch err := b.Seek(off); {
			case err == nil:
				fmt.Fprintf(stderr, "elsamon: ingest resumed at record %d\n", off.Records)
			case errors.Is(err, ingest.ErrNotSeekable):
				// A pipe or a push backend cannot replay; the producer
				// decides where the resumed stream starts.
				fmt.Fprintf(stderr, "elsamon: %v; continuing from the live position\n", err)
			default:
				return fmt.Errorf("seek to snapshot offset %d: %w", off.Records, err)
			}
		}
	}

	// The one feed loop: whatever the backend, every snapshot carries its
	// resume offset so -resume can Seek back to it.
	ctx := context.Background()
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	snapshot := func() {
		// A failed snapshot degrades resumability, not monitoring: warn
		// and keep serving predictions.
		monitor.SetIngestOffset(b.Offset())
		if err := writeSnapshot(monitor, *snapPath); err != nil {
			fmt.Fprintln(stderr, "elsamon: snapshot:", err)
		}
	}
	fed := 0
	for {
		rec, err := b.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if monitor == nil {
			// Anchor tick 0 at the first record's time.
			monitor = model.NewMonitor(rec.Time.Truncate(10 * time.Second))
		}
		preds, err := monitor.Feed(rec)
		if err != nil {
			return fmt.Errorf("elsamon: feed: %w", err)
		}
		for _, p := range preds {
			emit(out, model, p, *showLate)
		}
		out.Flush()
		fed++
		if *refEvery > 0 && fed%*refEvery == 0 {
			refresh(monitor, stderr)
		}
		if *snapPath != "" && fed%*snapEvery == 0 {
			snapshot()
		}
	}
	if monitor == nil {
		return fmt.Errorf("no records received")
	}
	if *snapPath != "" {
		// Final snapshot before Close flushes the open ticks, carrying the
		// end-of-stream offset so a later -resume continues exactly here.
		snapshot()
	}
	res := monitor.Close()
	st := res.Stats
	bs := b.Stats()
	fmt.Fprintf(stderr, "elsamon: %d records over %d ticks, %d predictions (%d late), %d stragglers dropped\n",
		st.Messages, st.Ticks, len(res.Predictions), st.LatePreds, st.LateRecords)
	fmt.Fprintf(stderr, "elsamon: ingest: %d delivered, %d quarantined, %d resyncs, %d connections (%d aborted)\n",
		bs.Delivered, bs.Quarantined, bs.Resyncs, bs.Conns, bs.AbortedConns)
	if st.QuarantinedRecords > 0 || st.ShedRecords > 0 || st.Degraded {
		fmt.Fprintf(stderr, "elsamon: hardening: %d quarantined, %d shed, %d degraded ticks\n",
			st.QuarantinedRecords, st.ShedRecords, st.DegradedTicks)
	}
	printStages(stderr, st.Stages)
	return nil
}

// refresh runs one incremental retraining round and reports what it did.
// A round before the first tick closes is silent (nothing to retrain
// from yet).
func refresh(mon *elsa.Monitor, stderr io.Writer) {
	st := mon.Refresh()
	if st == (elsa.RefreshStats{}) {
		return
	}
	how := "rescored"
	if st.Remined {
		how = "remined"
	}
	fmt.Fprintf(stderr, "elsamon: refresh: %d dirty pairs, %d scored, %d seeds, %d chains (%s) in %s\n",
		st.Dirty, st.Scored, st.Seeds, st.Chains, how, st.Duration.Round(time.Microsecond))
}

// writeSnapshot persists the monitor state crash-consistently, with the
// same discipline ingest uses for segment rolls: written to a sibling
// temp file, fsynced, renamed over the target, then the parent directory
// fsynced so the rename itself is durable. A crash mid-write never
// truncates the previous good snapshot, and a crash right after a
// "successful" snapshot cannot roll the file back to the old state.
func writeSnapshot(mon *elsa.Monitor, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := mon.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return ingest.SyncDir(filepath.Dir(path))
}

// printStages renders the pipeline's per-stage counters, one line per
// stage in graph order, with hardening and supervision columns when the
// stage has any.
func printStages(stderr io.Writer, stages []elsa.StageStats) {
	for _, sg := range stages {
		fmt.Fprintf(stderr, "elsamon: stage %-9s in=%-8d out=%-8d dropped=%-6d maxqueue=%-5d wall=%s",
			sg.Name, sg.In, sg.Out, sg.Dropped, sg.MaxQueue, sg.Wall.Round(time.Microsecond))
		if sg.Quarantined > 0 || sg.Shed > 0 {
			fmt.Fprintf(stderr, " quarantined=%d shed=%d", sg.Quarantined, sg.Shed)
		}
		if sg.Health != "" {
			fmt.Fprintf(stderr, " panics=%d bypassed=%d trips=%d probes=%d health=%s",
				sg.Panics, sg.Bypassed, sg.Trips, sg.Probes, sg.Health)
		}
		fmt.Fprintln(stderr)
	}
}

func emit(out *bufio.Writer, model *elsa.Model, p elsa.Prediction, showLate bool) {
	if p.Late() && !showLate {
		return
	}
	status := "PREDICT"
	if p.Late() {
		status = "LATE"
	}
	fmt.Fprintf(out, "%s %s lead=%s scope=%s at=%s event=%s\n",
		status, p.ExpectedAt.Format(time.RFC3339), p.Lead.Round(time.Second),
		p.Scope, p.Trigger, model.EventTemplate(p.Event))
}
