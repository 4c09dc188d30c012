package pipeline

import (
	"context"
	"sync"
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
)

// replayChunk is how many admitted, stamped records the replay's template
// goroutine hands the session at a time.
const replayChunk = 512

// Run replays a record source covering [start, end) through a Session
// bounded to that window. It blocks until the source is exhausted and all
// ticks in the window are processed (trailing empty ticks included, so a
// replay is tick-for-tick identical to the live monitor), the context is
// cancelled, or the source fails.
//
// Everything from tick close to chain match is the session's, supervision
// guards included. A replay adds one overlap: source → ingest → template
// assignment runs one chunk ahead of the session on its own goroutine,
// because template assignment is the heavy per-record stage and a replay,
// unlike a live feed, always has the next records at hand. A replayed
// record is therefore stamped before the shedding decision (Feed sheds
// first).
//
// The returned result is complete on nil error and partial otherwise: a
// cancelled replay stops between records, so every tick either ran the
// whole filter → match path or contributed nothing. Stats.Stages
// carry the per-stage counters either way, and the template goroutine is
// joined before Run returns — cancellation never leaks.
func (p *Pipeline) Run(ctx context.Context, src logs.RecordSource, start, end time.Time) (*predict.Result, error) {
	s := p.newSession(start, max(0, int(end.Sub(start)/p.eng.Step())))

	// Unbuffered, so two chunk buffers suffice: a send completes only once
	// the session has finished the previous chunk and come back for this
	// one, which frees the previous chunk's buffer for refilling.
	chunks := make(chan []logs.Record)
	var wg sync.WaitGroup
	wg.Add(1)
	//elsa:chanowner chunks
	go func() {
		defer wg.Done()
		defer close(chunks)
		bufs := [2][]logs.Record{make([]logs.Record, 0, replayChunk), make([]logs.Record, 0, replayChunk)}
		for i := 0; ctx.Err() == nil; i++ {
			chunk := p.fillChunk(src, bufs[i%2])
			select {
			case chunks <- chunk:
			case <-ctx.Done():
				return
			}
			if len(chunk) < replayChunk {
				return // source exhausted or failed
			}
		}
	}()

	for open := true; open && ctx.Err() == nil; {
		var chunk []logs.Record
		select {
		case chunk, open = <-chunks:
		case <-ctx.Done():
		}
		for _, rec := range chunk {
			if p.shouldShed(s.smp.buffered) {
				s.shed(rec.Time)
			} else {
				s.sample(rec)
			}
		}
	}
	wg.Wait()

	err := ctx.Err()
	if err == nil {
		s.Close() // seals the remaining window
		err = src.Err()
	}
	res := s.Result()
	res.Stats.LateRecords = int(s.smp.late) // stragglers only: out-of-window records are the sample stage's drops
	return res, err
}

// fillChunk pulls records from src through ingest and template assignment
// into chunk (reusing its storage) until it holds replayChunk of them; a
// shorter chunk means the source is exhausted or has failed.
func (p *Pipeline) fillChunk(src logs.RecordSource, chunk []logs.Record) []logs.Record {
	c := &p.counters[stageSource]
	chunk = chunk[:0]
	for len(chunk) < replayChunk {
		rec, ok := src.Next()
		if !ok {
			break
		}
		c.in.Add(1)
		if p.ingest(&rec) {
			c.out.Add(1)
			p.stampSafe(&rec)
			chunk = append(chunk, rec)
		}
	}
	return chunk
}
