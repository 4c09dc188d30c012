package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/ingest"
	"github.com/elsa-hpc/elsa/internal/logs"
)

// speedup compresses log time onto the wire: one log-day takes 2.16 s, a
// mean of about 36k records/s, an eighth of what the consumer's own work
// sustains, with the log's own bursts intact.
const speedup = 40000

// socketQueue is the listener's arrival buffer, the size elsaload uses.
const socketQueue = 4096

// pacedInfo is what the open loop measured beside the pass itself.
type pacedInfo struct {
	late     samples       // how far behind its schedule the producer sent each record
	writeNs  time.Duration // producer time inside WriteRecord
	backlog  int64         // records sent but not yet consumed when the producer finished
	producer error
}

// due is when record i is scheduled on the wire.
func due(t0 time.Time, streamStart time.Time, rec logs.Record) time.Time {
	return t0.Add(rec.Time.Sub(streamStart) / speedup)
}

// produce sends recs on their schedule from t0 on, regardless of how far
// the consumer has got: an open loop. It sleeps while the next record is
// more than a millisecond away and yields the processor below that,
// because the gaps inside a burst are far shorter than a timer can hit.
func produce(ctx context.Context, rc *ingest.RedialConn, t0 time.Time, recs []logs.Record, consumed *atomic.Int64, info *pacedInfo) error {
	streamStart := recs[0].Time
	now := t0
	for i := range recs {
		at := due(t0, streamStart, recs[i])
		for now.Before(at) {
			if wait := at.Sub(now); wait > time.Millisecond {
				select {
				case <-time.After(wait - time.Millisecond/2):
				case <-ctx.Done():
					return ctx.Err()
				}
			} else {
				runtime.Gosched()
			}
			now = time.Now()
		}
		info.late.add(now.Sub(at))
		if err := rc.WriteRecord(ctx, recs[i]); err != nil {
			return err
		}
		sent := time.Now()
		info.writeNs += sent.Sub(now)
		now = sent
	}
	info.backlog = int64(len(recs)) - consumed.Load()
	return rc.End()
}

// pacedPass is the open loop: one producer frames the in-memory stream
// onto a unix socket on the log's own schedule, one consumer pulls it off
// ingest.Socket into a fresh Monitor. Lag is timed from each record's due
// time, so a stall delays every record queued behind it. The time the
// consumer spends inside Socket.Next is its wait for the schedule: the
// socket's reader goroutine decodes, Next only takes from its queue.
func pacedPass(ctx context.Context, e *env, st *staged, tr *tracer) (*pass, error) {
	model, err := st.model()
	if err != nil {
		return nil, err
	}
	if len(st.mem) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	addr := filepath.Join(e.dir, "in.sock")
	if err := os.Remove(addr); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	sock, err := ingest.ListenSocket("unix", addr, socketQueue)
	if err != nil {
		return nil, err
	}
	defer sock.Close()

	// A wedged socket must not outlive the driver's patience.
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()

	rc, err := ingest.DialFrame(ctx, "unix", addr, ingest.RedialOptions{Seed: e.seed})
	if err != nil {
		return nil, err
	}
	defer rc.Close()

	info := &pacedInfo{}
	var consumed atomic.Int64
	var producer sync.WaitGroup
	t0 := time.Now()
	producer.Add(1)
	go func() {
		defer producer.Done()
		info.producer = produce(ctx, rc, t0, st.mem, &consumed, info)
	}()
	// The producer is joined on every path out of here.
	join := func() { cancel(); producer.Wait() }
	streamStart := st.mem[0].Time

	var out bytes.Buffer
	pw := elsa.NewPredictionWriter(&out)
	p := &pass{paced: info}
	cl := closer{origin: streamStart.Truncate(step)}
	mon := model.NewMonitor(cl.origin)
	p.lags = make([]int64, 0, len(st.mem))
	mark := t0
	if tr != nil {
		tr.begin(t0)
	}
	for {
		rec, err := sock.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			join()
			return nil, err
		}
		got := time.Now()
		p.wait += got.Sub(mark)
		if tr != nil {
			tr.add(lIngest, got.Sub(mark))
			tr.cur.records++
		}
		if int(p.records) >= len(st.mem) {
			join()
			return nil, fmt.Errorf("socket delivered more records than were sent")
		}
		at := due(t0, streamStart, st.mem[p.records])
		p.records++
		from, to := cl.closing(rec.Time)
		preds, err := mon.Feed(rec)
		if err != nil {
			join()
			return nil, err
		}
		if to > from || tr != nil {
			mark = time.Now()
			if to > from {
				p.closes = append(p.closes, int64(mark.Sub(got)))
			}
			if tr != nil {
				tr.add(lMonitor, mark.Sub(got))
			}
		}
		for _, pr := range preds {
			if err := pw.Write(pr); err != nil {
				join()
				return nil, err
			}
		}
		done := time.Now()
		if tr != nil {
			if len(preds) > 0 {
				tr.add(lSink, done.Sub(mark))
			}
			for k := from; k < to; k++ {
				tr.closeTick(k, done)
			}
		}
		mark = done
		p.lags = append(p.lags, int64(done.Sub(at)))
		consumed.Add(1)
	}
	p.wall = mark.Sub(t0)
	producer.Wait()
	p.result = mon.Close()
	if err := writeTail(pw, p.result); err != nil {
		return nil, err
	}
	if tr != nil {
		end := time.Now()
		tr.add(lMonitor, end.Sub(mark))
		tr.closeTick(cl.next, end)
	}
	p.out = out.Bytes()
	p.backend = sock.Stats()
	s := p.result.Stats
	p.failed = int64(s.QuarantinedRecords+s.ShedRecords+s.LateRecords+s.DedupedRecords) +
		p.backend.Quarantined + p.backend.Resyncs + (int64(len(st.mem)) - p.records)
	if info.producer != nil {
		return nil, fmt.Errorf("producer: %w", info.producer)
	}
	return p, nil
}
