package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/ingest"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
)

// epoch is where every generated log starts; day 0 trains, the stream
// follows it.
var epoch = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

// step is the sampling tick every monitor in the repo runs at.
const step = 10 * time.Second

// grace mirrors pipeline.DefaultGraceTicks: a tick closes once a record
// one full tick past its end has been seen.
const grace = 1

// sizing holds the stream lengths and repeat counts of a run. Lengths are
// the only thing that differs between the full benchmark and the smoke
// test; the structure of every workload is the same.
type sizing struct {
	train         time.Duration // day 0, the training window
	bgl           time.Duration // serve_bgl stream
	wide          time.Duration // serve_wide stream
	fleetSteady   time.Duration // serve_fleet steady phase
	fleetFailover time.Duration // serve_fleet failover phase
	live          time.Duration // offline_bgl200 live segdir
	predict       time.Duration // offline_bgl200 batch-predict window
	paced         time.Duration // paced_socket stream

	wideEvents    int // event types of the wide model (serve_wide, offline_bgl200)
	refresh       refreshPolicy
	snapshotEvery int // fleet journal entries between shard snapshots
	kills         int // Coordinator.Kill calls in the failover phase
	equivRecords  int // records the 1-shard-fleet equivalence check feeds

	setups    int           // set-ups per untraced run, at least; setup_s is their median
	setupFor  time.Duration // an untraced run keeps setting up until this has passed
	minPasses int           // timed passes per untraced run, at least
	pairs     int           // untraced/traced pass pairs of the traced run; the fastest of each counts

	// maxUnattributed is the reconciliation limit: the layer self times of
	// the traced pass and the untraced pass's time may differ by this share
	// of the latter. README.md has the measured values it was set from.
	maxUnattributed float64
	repeats         int // repeats of train / snapshot / resume in the traced run
	predicts        int // Model.Predict repeats in the traced run
}

// fullSize gives passes of 1.5-3.5 s on two cores, so an untraced run
// fits five passes or more in --seconds, and at least 2 800 tick closes
// per pass for the p99. README.md, "Steadiness", has why serve_wide is
// shorter than the issue's 12 h: more repeats of each tick.
var fullSize = sizing{
	train:         24 * time.Hour,
	bgl:           4 * 24 * time.Hour,
	wide:          8 * time.Hour,
	fleetSteady:   24 * time.Hour,
	fleetFailover: 12 * time.Hour,
	live:          9 * time.Hour,
	predict:       6 * time.Hour,
	paced:         24 * time.Hour,

	wideEvents:    200,
	refresh:       refreshPolicy{after: 30000, every: 7500},
	snapshotEvery: 10000,
	kills:         6,
	equivRecords:  50000,

	setups:    3,
	setupFor:  4 * time.Second,
	minPasses: 3,
	pairs:     3,
	repeats:   5,
	predicts:  3,

	maxUnattributed: 0.30,
}

// refreshPolicy is when the refreshing monitor of offline_bgl200 retrains
// from its live counters: first once after records have been served, then
// every every records. The first Refresh always re-mines, and on a horizon
// much shorter than after records of bgl200 the miner admits tens of
// thousands of chains and takes 12-47 s (measured at 5k, 10k and 20k
// records), so the workload lets the horizon grow first. The zero policy
// never refreshes.
type refreshPolicy struct {
	after, every int
}

func (rp refreshPolicy) due(served int64) bool {
	n := served - int64(rp.after)
	return rp.every > 0 && n >= 0 && n%int64(rp.every) == 0
}

// env is what one invocation hands every workload.
type env struct {
	seed    int64
	size    sizing
	dir     string        // scratch directory of this workload, under the out dir
	seconds time.Duration // how long the untraced run keeps starting passes
}

// staged is a workload's set-up product: a trained model and a stream
// staged behind the backend the workload reads.
type staged struct {
	profile     gen.Profile
	blob        []byte // Model.Save bytes; every pass loads a private model from it
	train       *gen.Result
	streamStart time.Time
	segs        string        // segment directory, "" when the stream stays in memory
	mem         []logs.Record // in-memory stream (paced_socket's producer)
	records     int
	phase1      int // records before the second phase starts (serve_fleet's steady phase)
	failures    []gen.FailureRecord
	appendWall  time.Duration // SegmentWriter.Append + Close over the stream
}

// The generated log is the same for every workload seed: day 0, which
// trains the model, comes from generator seed pool, and the stream is made
// of days from generator seeds pool+1, pool+2, ... in that order. Every
// way of drawing the log from the workload seed made the benchmark measure
// the seed instead of the code; README.md, "Inputs and the seed", has the
// measurements. The workload seed drives what the harness itself draws:
// the kill ordinals of serve_fleet and the producer's redial jitter.
const pool = 1_000_003

// streamDays generates [from, from+dur) one day at a time, handing each
// day's records to emit, so that a long stream is never in memory whole.
func streamDays(p gen.Profile, from time.Time, dur time.Duration, emit func([]logs.Record) error) ([]gen.FailureRecord, error) {
	const day = 24 * time.Hour
	var failures []gen.FailureRecord
	for d := int64(1); dur > 0; d++ {
		res := gen.New(p, pool+d).Generate(from, min(dur, day))
		if err := emit(res.Records); err != nil {
			return nil, err
		}
		failures = append(failures, res.Failures...)
		from = res.End
		dur -= day
	}
	return failures, nil
}

// stage is the set-up every workload shares: generate day 0, train on it with the default configuration, generate the
// stream and put it behind the backend. split > 0 records how many stream
// records fall before streamStart+split.
func stage(e *env, p gen.Profile, stream, split time.Duration, inMemory bool) (*staged, error) {
	st := &staged{profile: p}
	st.train = gen.New(p, pool).Generate(epoch, e.size.train)
	model := elsa.Train(st.train.Records, st.train.Start, st.train.End, elsa.DefaultTrainConfig())
	var blob bytes.Buffer
	if err := model.Save(&blob); err != nil {
		return nil, err
	}
	st.blob = blob.Bytes()
	st.streamStart = st.train.End
	cut := st.streamStart.Add(split)
	count := func(recs []logs.Record) {
		for _, rec := range recs {
			if split > 0 && rec.Time.Before(cut) {
				st.phase1++
			}
		}
		st.records += len(recs)
	}

	if inMemory {
		var err error
		st.failures, err = streamDays(p, st.streamStart, stream, func(recs []logs.Record) error {
			count(recs)
			st.mem = append(st.mem, recs...)
			return nil
		})
		return st, err
	}

	st.segs = filepath.Join(e.dir, "segs")
	if err := os.RemoveAll(st.segs); err != nil {
		return nil, err
	}
	w, err := ingest.CreateSegmentDir(st.segs, ingest.SegmentOptions{})
	if err != nil {
		return nil, err
	}
	st.failures, err = streamDays(p, st.streamStart, stream, func(recs []logs.Record) error {
		count(recs)
		t := time.Now()
		defer func() { st.appendWall += time.Since(t) }()
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				return err
			}
		}
		return nil
	})
	t := time.Now()
	cerr := w.Close()
	st.appendWall += time.Since(t)
	if err == nil {
		err = cerr
	}
	return st, err
}

// open returns a reader at the first record of the staged segment
// directory.
func (st *staged) open() (*ingest.SegDir, error) {
	return ingest.OpenSegDir(st.segs, ingest.SegDirOptions{})
}

// model loads a private model from the staged blob: feeding mutates the
// template organizer and Refresh the chains, so passes never share one.
func (st *staged) model() (*elsa.Model, error) {
	return elsa.LoadModel(bytes.NewReader(st.blob))
}

// modelParts is the saved model opened up into the internal values the
// layered driver composes the stage functions from.
type modelParts struct {
	inner    *correlate.Model
	profiles map[string]*location.Profile
	org      *helo.Organizer
	corr     correlate.Config
}

// parts decodes the staged blob the way elsa.LoadModel does.
func (st *staged) parts() (*modelParts, error) {
	var envl struct {
		HELO struct {
			Threshold float64          `json:"threshold"`
			Templates []*helo.Template `json:"templates"`
		} `json:"helo"`
		Model     *correlate.Model             `json:"model"`
		Locations map[string]*location.Profile `json:"locations"`
	}
	if err := json.Unmarshal(st.blob, &envl); err != nil {
		return nil, fmt.Errorf("decode model: %w", err)
	}
	if envl.Model == nil {
		return nil, fmt.Errorf("decode model: envelope has no model")
	}
	corr := correlate.DefaultConfig()
	if envl.Model.Step > 0 {
		corr.Step = envl.Model.Step
	}
	return &modelParts{
		inner:    envl.Model,
		profiles: envl.Locations,
		org:      helo.Restore(envl.HELO.Threshold, envl.HELO.Templates),
		corr:     corr,
	}, nil
}

// drain reads the first limit records of the staged segment directory
// into memory (probes and checks that need the records themselves, never
// a timed pass).
func (st *staged) drain(ctx context.Context, limit int) ([]logs.Record, error) {
	b, err := st.open()
	if err != nil {
		return nil, err
	}
	defer b.Close()
	src := ingest.NewSource(ctx, b)
	var recs []logs.Record
	for limit <= 0 || len(recs) < limit {
		rec, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	return recs, src.Err()
}
