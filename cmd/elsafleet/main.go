// Command elsafleet runs the sharded monitor fleet: it loads a trained
// model, partitions the record stream by topology scope across N
// supervised shards (package internal/fleet), and prints the merged
// prediction stream.
//
// Usage:
//
//	elsa -log history.log -train-days 5 -save model.json
//	elsafleet -model model.json -shards 4 -scope rack < stream
//
// Each shard owns the records of a set of scope keys (racks by default)
// chosen by consistent hashing, so a fleet built with one more shard
// moves only the minimal fraction of keys. Shards run under internal/resilience
// supervision: a panicking or wedged shard is restored from its last
// snapshot and the journaled suffix is replayed, with the catch-up
// predictions flagged degraded. Records keep flowing to the surviving
// shards throughout.
//
// Besides stdin, -ingest selects a pluggable backend (package
// internal/ingest), which is how a multi-process deployment feeds the
// fleet — producers dial the socket with CRC-framed records:
//
//	elsafleet -model model.json -ingest socket -listen unix:/tmp/elsa.sock
//	elsafleet -model model.json -ingest segdir -in /var/lib/elsa/log -follow
//
// Each prediction is printed as one line, the elsamon format plus the
// owning shard and its per-shard sequence number:
//
//	PREDICT <expected-time> lead=<window> scope=<scope> at=<trigger> event=<template> shard=<name> seq=<n>
//
// Catch-up predictions replayed across a failover carry a trailing
// "degraded" marker. With -status-every, a per-shard health table
// (breaker state, trips, half-open probes, gaps, handoffs) is printed
// to stderr periodically; the final table always prints at exit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/fleet"
	"github.com/elsa-hpc/elsa/internal/ingest"
	"github.com/elsa-hpc/elsa/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "elsafleet:", err)
		os.Exit(1)
	}
}

// run executes one fleet invocation. Flags live on a private FlagSet and
// all I/O goes through the parameters, so tests drive it in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("elsafleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelPath = fs.String("model", "", "trained model (from elsa -save) (required)")
		shards    = fs.Int("shards", fleet.DefaultShards, "number of supervised monitor shards")
		scopeS    = fs.String("scope", "rack", "partitioning granularity: node, nodecard, midplane, rack or system")
		snapEvery = fs.Int("snapshot-every", 0, "journal entries between automatic shard snapshots (0 = package default, negative disables)")
		formatS   = fs.String("format", "canonical", "input format: canonical, bgl or syslog (stdin only)")
		year      = fs.Int("year", 0, "year completing syslog timestamps (0 = current)")
		showLate  = fs.Bool("late", false, "also print predictions whose window has already closed")
		statEvery = fs.Int("status-every", 0, "records between per-shard status tables on stderr (0 = final only)")
		ingestS   = fs.String("ingest", "", "ingest backend: file, socket or segdir (default: lines on stdin)")
		inPath    = fs.String("in", "", "input path: log file (-ingest file) or segment directory (-ingest segdir)")
		listenS   = fs.String("listen", "", "listen address as net:addr, e.g. unix:/tmp/elsa.sock or tcp:127.0.0.1:7700 (-ingest socket)")
		follow    = fs.Bool("follow", false, "with -ingest segdir: tail the directory for new records instead of stopping at the end")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("-model is required")
	}
	if *shards <= 0 {
		return fmt.Errorf("-shards must be positive")
	}
	scope, err := topology.ParseScope(*scopeS)
	if err != nil {
		return err
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
	fmt.Fprintf(stderr, "elsafleet: model with %d event types, %d chains loaded; %d shards at %s scope (%s)\n",
		model.EventCount(), len(model.PredictiveChains()), *shards, scope, feed)

	cfg := fleet.Config{Shards: *shards, Scope: scope, SnapshotEvery: *snapEvery}
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

	ctx := context.Background()
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	var coord *fleet.Coordinator
	fed := 0
	for {
		rec, err := b.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if coord == nil {
			// Anchor tick 0 at the first record's time, like elsamon.
			coord, err = fleet.New(model, rec.Time.Truncate(10*time.Second), cfg)
			if err != nil {
				return err
			}
		}
		for _, p := range coord.Feed(rec) {
			emit(out, model, p, *showLate)
		}
		out.Flush()
		fed++
		if *statEvery > 0 && fed%*statEvery == 0 {
			printStatus(stderr, coord.Stats())
		}
	}
	if coord == nil {
		return fmt.Errorf("no records received")
	}
	res := coord.Close()
	for _, p := range res.Tail {
		emit(out, model, p, *showLate)
	}
	out.Flush()
	st := res.Stats
	fmt.Fprintf(stderr, "elsafleet: %d records over %d scope keys, %d predictions (%d degraded), %d entries lost\n",
		st.Records, st.Scopes, st.Predictions, st.Degraded, st.Lost)
	printStatus(stderr, st)
	return nil
}

// printStatus renders one per-shard health table: routing and journal
// volume, merged predictions, failure accounting, and the supervisor's
// breaker state with trip and half-open probe counts.
func printStatus(stderr io.Writer, st fleet.Stats) {
	for _, sh := range st.Shards {
		fmt.Fprintf(stderr, "elsafleet: shard %-8s state=%-6s scopes=%-4d entries=%-8d preds=%-6d degraded=%-4d",
			sh.Name, sh.State, sh.Scopes, sh.Entries, sh.Predictions, sh.Degraded)
		fmt.Fprintf(stderr, " gaps=%d/%d snapshots=%d handoffs=%d failovers=%d lost=%d",
			sh.Gaps, sh.GapEntries, sh.Snapshots, sh.Handoffs, sh.Failovers, sh.LostEntries)
		sup := sh.Supervisor
		fmt.Fprintf(stderr, " panics=%d trips=%d probes=%d denied=%d health=%s\n",
			sup.Panics, sup.Trips, sup.Probes, sh.RecoveryDenied, sup.Health)
	}
}

// emit prints one merged prediction in the elsamon line format plus the
// owning shard, its per-shard sequence number, and a degraded marker on
// failover catch-up forecasts.
func emit(out *bufio.Writer, model *elsa.Model, p fleet.Merged, showLate bool) {
	if p.Late() && !showLate {
		return
	}
	status := "PREDICT"
	if p.Late() {
		status = "LATE"
	}
	fmt.Fprintf(out, "%s %s lead=%s scope=%s at=%s event=%s shard=%s seq=%d",
		status, p.ExpectedAt.Format(time.RFC3339), p.Lead.Round(time.Second),
		p.Scope, p.Trigger, model.EventTemplate(p.Event), p.Shard, p.Seq)
	if p.Degraded {
		fmt.Fprint(out, " degraded")
	}
	fmt.Fprintln(out)
}
