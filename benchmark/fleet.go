package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sort"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/fleet"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// fleetShards is nproc on the measuring machine; more shards would
// measure the scheduler, not the fleet.
const fleetShards = 2

// fleetInfo is the coordinator's own accounting plus what the harness
// timed around the failover phase.
type fleetInfo struct {
	stats     fleet.Stats
	kills     int     // Coordinator.Kill calls that found a live shard
	failovers samples // duration of each feed that restored a killed shard
}

// killSchedule picks the record ordinals of the failover phase at which a
// shard is killed, from the workload seed alone. The last tenth of the
// phase is left alone so that every killed shard still receives the record
// that makes it fail over.
func killSchedule(seed int64, from, to, kills int) []int {
	to -= (to - from) / 10
	if to-from < kills {
		kills = to - from
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int]bool, kills)
	at := make([]int, 0, kills)
	for len(at) < kills {
		o := from + rng.Intn(to-from)
		if !seen[o] {
			seen[o] = true
			at = append(at, o)
		}
	}
	sort.Ints(at)
	return at
}

// fleetPass drives the staged stream through a 2-shard coordinator
// partitioned at rack scope. The steady phase (the first st.phase1
// records) is the timed closed loop, lags and tick closes included; the
// failover phase keeps feeding while shards are killed at seeded ordinals,
// so journal replay and snapshot restore run with records still arriving.
func fleetPass(ctx context.Context, e *env, st *staged, tr *tracer) (*pass, error) {
	model, err := st.model()
	if err != nil {
		return nil, err
	}
	b, err := st.open()
	if err != nil {
		return nil, err
	}
	defer b.Close()

	steady := st.phase1
	kills := killSchedule(e.seed, steady, st.records, e.size.kills)

	var out bytes.Buffer
	pw := elsa.NewPredictionWriter(&out)
	info := &fleetInfo{}
	p := &pass{result: &elsa.PredictResult{}, fleet: info}
	var coord *fleet.Coordinator
	var names []string
	var cl closer
	write := func(ms []fleet.Merged) error {
		for _, m := range ms {
			if err := pw.Write(m.Prediction); err != nil {
				return err
			}
			p.result.Predictions = append(p.result.Predictions, m.Prediction)
		}
		return nil
	}

	killed := -1 // index of the shard waiting for its failover, -1 when none
	var failoversBefore int64
	p.lags = make([]int64, 0, steady)
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
		if coord == nil {
			cl.origin = rec.Time.Truncate(step)
			coord, err = fleet.New(model, cl.origin, fleet.Config{
				Shards: fleetShards, Scope: topology.ScopeRack, SnapshotEvery: e.size.snapshotEvery,
			})
			if err != nil {
				return nil, err
			}
			names = coord.ShardNames()
		}
		ord := int(p.records)
		p.records++
		if ord == steady {
			p.steady = int64(steady)
			p.steadyWall = time.Since(t0)
		}
		if len(kills) > 0 && ord == kills[0] {
			kills = kills[1:]
			if killed < 0 {
				k := (e.size.kills - len(kills)) % len(names)
				if coord.Kill(names[k]) {
					info.kills++
					killed = k
					failoversBefore = coord.Stats().Shards[k].Failovers
				}
			}
		}
		from, to := cl.closing(rec.Time)

		var merged []fleet.Merged
		if to > from || killed >= 0 || tr != nil {
			t := time.Now()
			merged = coord.Feed(rec)
			now := time.Now()
			if to > from && ord < steady {
				p.closes = append(p.closes, int64(now.Sub(t)))
			}
			if killed >= 0 && coord.Stats().Shards[killed].Failovers > failoversBefore {
				info.failovers.add(now.Sub(t))
				killed = -1
			}
			if tr != nil {
				tr.add(lFleet, now.Sub(t))
				mark = now
			}
		} else {
			merged = coord.Feed(rec)
		}
		if len(merged) > 0 {
			if err := write(merged); err != nil {
				return nil, err
			}
			if tr != nil {
				now := time.Now()
				tr.add(lSink, now.Sub(mark))
				mark = now
			}
		}
		if tr != nil {
			for k := from; k < to; k++ {
				tr.closeTick(k, mark)
			}
		}
		if ord < steady {
			now := time.Now()
			p.lags = append(p.lags, int64(now.Sub(due)))
			due = now
		}
	}
	if coord == nil {
		return nil, io.ErrUnexpectedEOF
	}
	res := coord.Close()
	if err := write(res.Tail); err != nil {
		return nil, err
	}
	end := time.Now()
	if tr != nil {
		tr.add(lFleet, end.Sub(mark))
		tr.closeTick(cl.next, end)
	}
	p.wall = end.Sub(t0)
	p.out = out.Bytes()
	p.backend = b.Stats()
	info.stats = res.Stats

	p.failed = p.backend.Quarantined + res.Stats.Lost
	for _, sh := range res.Stats.Shards {
		p.failed += sh.ReplayShort + sh.FlushFailures
	}
	for _, r := range res.PerShard {
		s := r.Stats
		p.failed += int64(s.QuarantinedRecords + s.ShedRecords + s.LateRecords + s.DedupedRecords)
		p.result.Stats.ChainsLoaded = s.ChainsLoaded
	}
	return p, nil
}

// barePass feeds recs to a bare Monitor from memory: the reference the
// fleet's overhead and its one-shard output are measured against.
func barePass(st *staged, recs []logs.Record) (out []byte, wall time.Duration, err error) {
	model, err := st.model()
	if err != nil {
		return nil, 0, err
	}
	if len(recs) == 0 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	var buf bytes.Buffer
	pw := elsa.NewPredictionWriter(&buf)
	mon := model.NewMonitor(recs[0].Time.Truncate(step))
	t0 := time.Now()
	for _, rec := range recs {
		preds, err := mon.Feed(rec)
		if err != nil {
			return nil, 0, err
		}
		for _, pr := range preds {
			if err := pw.Write(pr); err != nil {
				return nil, 0, err
			}
		}
	}
	if err := writeTail(pw, mon.Close()); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), time.Since(t0), nil
}

// oneShardFleet feeds recs through a Shards: 1 coordinator from memory and
// returns what it predicted, which DESIGN.md §15 proves byte-identical to
// the bare monitor's output.
func oneShardFleet(st *staged, recs []logs.Record, snapshotEvery int) ([]byte, error) {
	model, err := st.model()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	coord, err := fleet.New(model, recs[0].Time.Truncate(step), fleet.Config{
		Shards: 1, Scope: topology.ScopeRack, SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return nil, err
	}
	var preds []predict.Prediction
	for _, rec := range recs {
		for _, m := range coord.Feed(rec) {
			preds = append(preds, m.Prediction)
		}
	}
	for _, m := range coord.Close().Tail {
		preds = append(preds, m.Prediction)
	}
	var buf bytes.Buffer
	if err := elsa.WritePredictions(&buf, preds); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// routeProbe times the fleet's routing decision standalone: the topology
// scope key of each record and its owner on the consistent-hash ring.
func routeProbe(recs []logs.Record, shards int) (nsPerRecord float64) {
	ring := fleet.NewRing(fleet.DefaultReplicas)
	for i := 0; i < shards; i++ {
		ring.Add("shard" + string(rune('0'+i)))
	}
	seen := make(map[string]string)
	t0 := time.Now()
	for _, rec := range recs {
		key := rec.Location.Truncate(topology.ScopeRack).String()
		seen[key] = ring.Owner(key)
	}
	return float64(time.Since(t0)) / float64(len(recs))
}
