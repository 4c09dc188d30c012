package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
)

// trainInfo is the offline phase opened up into its layers.
type trainInfo struct {
	whole     []float64 // seconds per elsa.Train
	assignMs  float64   // helo.Organizer.Assign over the training records
	trainMs   float64   // correlate.Train
	allPairs  float64   // ms, the cross-correlation seed scan inside correlate.Train
	mineMs    float64   // the gradual miner inside correlate.Train
	extractMs float64   // location.Extract
	scored    int
	pruned    float64
	chains    int
}

// trainPhase times elsa.Train as users call it, then walks the same
// offline phase layer by layer through the internal packages elsa.Train
// composes. The split of correlate.Train into seed scan and miner is the
// program's own TrainStats; everything else is timed from outside.
func trainPhase(st *staged, repeats int, tr *tracer) *trainInfo {
	info := &trainInfo{}
	tw := st.train
	for i := 0; i < repeats; i++ {
		t := time.Now()
		elsa.Train(tw.Records, tw.Start, tw.End, elsa.DefaultTrainConfig())
		end := time.Now()
		tr.phase("elsa.Train", -1, t, end)
		info.whole = append(info.whole, end.Sub(t).Seconds())
	}

	recs := append([]logs.Record(nil), tw.Records...)
	logs.SortByTime(recs)
	root := time.Now()
	org := helo.New(0)
	org.Assign(recs)
	t1 := time.Now()
	cfg := correlate.DefaultConfig()
	m := correlate.Train(recs, tw.Start, tw.End, correlate.Hybrid, cfg)
	t2 := time.Now()
	location.Extract(recs, m.Chains, tw.Start, m.Step, 1)
	t3 := time.Now()
	id := tr.phase("train.layers", -1, root, t3)
	tr.phase("helo", id, root, t1)
	tr.phase("correlate", id, t1, t2)
	tr.phase("location", id, t2, t3)

	info.assignMs = ms(t1.Sub(root))
	info.trainMs = ms(t2.Sub(t1))
	info.extractMs = ms(t3.Sub(t2))
	info.allPairs = ms(m.Stats.Seed)
	info.mineMs = ms(m.Stats.Mine)
	info.scored = m.Stats.Pairs.Scored
	if total := m.Stats.Pairs.Candidates; total > 0 {
		info.pruned = float64(m.Stats.Pairs.Pruned()) / float64(total)
	}
	info.chains = len(m.Chains)
	return info
}

// predictPhase runs batch Model.Predict over the window after the live
// stream: the async Pipeline.Run driver, which has no accumulator and
// reads no backend.
func predictPhase(st *staged, e *env, tr *tracer) (rates []float64, outs [][]byte, day *gen.Result, err error) {
	from := st.streamStart.Add(e.size.live)
	day = gen.New(st.profile, pool-1).Generate(from, e.size.predict)
	for i := 0; i < e.size.predicts; i++ {
		model, err := st.model()
		if err != nil {
			return nil, nil, nil, err
		}
		t := time.Now()
		res := model.Predict(day.Records, day.Start, day.End)
		end := time.Now()
		tr.phase("Model.Predict", -1, t, end)
		rates = append(rates, float64(len(day.Records))/end.Sub(t).Seconds())
		var buf bytes.Buffer
		if err := elsa.WritePredictions(&buf, res.Predictions); err != nil {
			return nil, nil, nil, err
		}
		outs = append(outs, buf.Bytes())
	}
	return rates, outs, day, nil
}

// persistInfo is what snapshot and resume cost on a monitor that has
// served the live stream up to the cut.
type persistInfo struct {
	snapshotMs    []float64
	snapshotBytes int
	loadMs        []float64 // elsa.LoadModel
	decodeMs      []float64 // Model.ResumeMonitor
	seekMs        []float64 // Backend.Seek to the snapshot's offset
	resumeMs      []float64 // load + resume + seek + first record fed
	tailEqual     bool
	tailRecords   int64
}

// persistPhase serves the live stream with a refreshing monitor up to a
// cut, snapshots it there, lets it run on to the end, and then resumes a
// second monitor from the snapshot to replay the tail: the resumed
// monitor's tail predictions must equal the uninterrupted monitor's.
func persistPhase(ctx context.Context, st *staged, e *env, tr *tracer) (*persistInfo, error) {
	info := &persistInfo{}
	model, err := st.model()
	if err != nil {
		return nil, err
	}
	b, err := st.open()
	if err != nil {
		return nil, err
	}
	defer b.Close()

	// The cut falls between the first and the second Refresh, so the
	// snapshot carries refresh state and the resumed monitor refreshes
	// from restored counters.
	cut := int64(e.size.refresh.after + e.size.refresh.every/2)
	if cut >= int64(st.records) {
		return nil, fmt.Errorf("live stream of %d records ends before the snapshot cut at %d", st.records, cut)
	}
	var snap []byte
	var n int64
	// feed serves the stream from where the backend stands, refreshing on
	// the workload's policy; before the snapshot exists it stops at the cut.
	feed := func(mon *elsa.Monitor, tail *[]elsa.Prediction) error {
		for {
			rec, err := b.Next(ctx)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			preds, err := mon.Feed(rec)
			if err != nil {
				return err
			}
			n++
			if tail != nil {
				*tail = append(*tail, preds...)
			}
			if e.size.refresh.due(n) {
				mon.Refresh()
				mon.SetIngestOffset(b.Offset())
			}
			if n == cut && snap == nil {
				return nil
			}
		}
	}

	// Up to the cut.
	first, err := b.Next(ctx)
	if err != nil {
		return nil, err
	}
	mon := model.NewMonitor(first.Time.Truncate(step))
	if _, err := mon.Feed(first); err != nil {
		return nil, err
	}
	n = 1
	if err := feed(mon, nil); err != nil {
		return nil, err
	}
	mon.SetIngestOffset(b.Offset())
	for i := 0; i < e.size.repeats; i++ {
		var buf bytes.Buffer
		t := time.Now()
		if err := mon.Snapshot(&buf); err != nil {
			return nil, err
		}
		end := time.Now()
		tr.phase("Monitor.Snapshot", -1, t, end)
		info.snapshotMs = append(info.snapshotMs, ms(end.Sub(t)))
		snap = buf.Bytes()
	}
	info.snapshotBytes = len(snap)

	// The uninterrupted monitor runs on; its tail is the reference.
	var want []elsa.Prediction
	if err := feed(mon, &want); err != nil {
		return nil, err
	}
	before := len(mon.Result().Predictions)
	want = append(want, mon.Close().Predictions[before:]...)
	info.tailRecords = n - cut

	// Resume: load the saved model, decode the snapshot, seek the backend
	// to the recorded offset, feed the first record.
	var resumed *elsa.Monitor
	var got []elsa.Prediction
	for i := 0; i < e.size.repeats; i++ {
		t0 := time.Now()
		m, err := st.model()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		resumed, err = m.ResumeMonitor(bytes.NewReader(snap))
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		off, ok := resumed.IngestOffset()
		if !ok {
			return nil, fmt.Errorf("snapshot carries no ingest offset")
		}
		if err := b.Seek(off); err != nil {
			return nil, err
		}
		t3 := time.Now()
		rec, err := b.Next(ctx)
		if err != nil {
			return nil, err
		}
		got, err = resumed.Feed(rec)
		if err != nil {
			return nil, err
		}
		t4 := time.Now()
		id := tr.phase("resume", -1, t0, t4)
		tr.phase("persist.load", id, t0, t1)
		tr.phase("persist.resume", id, t1, t2)
		tr.phase("ingest.seek", id, t2, t3)
		info.loadMs = append(info.loadMs, ms(t1.Sub(t0)))
		info.decodeMs = append(info.decodeMs, ms(t2.Sub(t1)))
		info.seekMs = append(info.seekMs, ms(t3.Sub(t2)))
		info.resumeMs = append(info.resumeMs, ms(t4.Sub(t0)))
	}
	// The last resumed monitor replays the rest of the tail.
	n = cut + 1
	got = append([]elsa.Prediction(nil), got...)
	if err := feed(resumed, &got); err != nil {
		return nil, err
	}
	before = len(resumed.Result().Predictions)
	got = append(got, resumed.Close().Predictions[before:]...)

	var a, c bytes.Buffer
	if err := elsa.WritePredictions(&a, want); err != nil {
		return nil, err
	}
	if err := elsa.WritePredictions(&c, got); err != nil {
		return nil, err
	}
	info.tailEqual = bytes.Equal(a.Bytes(), c.Bytes())
	return info, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
