package pipeline

import (
	"errors"
	"fmt"
	"time"

	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/sig"
)

// SessionState is the serialisable mid-stream state of a Session: the
// sampler cursor (tick position, high-water mark, still-open tick
// aggregates), the shedding flag, the engine's online state and the
// accumulated result. A monitor that snapshots it periodically can be
// killed and resumed without retraining and without re-emitting or
// losing predictions: the resumed session continues tick-for-tick where
// the snapshot was taken.
//
// The state is pure data — it references the model only through stable
// keys (event ids, chain keys), which Pipeline.ResumeSession resolves
// and validates against the model it runs over.
//
//elsa:snapshot-envelope
type SessionState struct {
	Origin    time.Time             `json:"origin"`
	Step      time.Duration         `json:"step"`
	NextTick  int                   `json:"next_tick"`
	HighWater time.Time             `json:"high_water"`
	Open      map[int]*predict.Tick `json:"open,omitempty"`
	Late      int64                 `json:"late,omitempty"`
	Outside   int64                 `json:"outside,omitempty"`

	Shedding bool `json:"shedding,omitempty"`

	// Accum carries the incremental training statistics mid-stream when
	// the pipeline was armed with Config.Accumulate.
	Accum *sig.AccumState `json:"accum,omitempty"`

	Engine *predict.EngineState `json:"engine"`
	Result *predict.Result      `json:"result"`
}

// State snapshots the session mid-stream. The snapshot is a deep copy —
// feeding the session afterwards cannot mutate it. Snapshotting a closed
// session is an error: its open ticks were already flushed, so resuming
// from it would double-emit their predictions.
//
//elsa:snapshotter encode
//elsa:requires open
func (s *Session) State() (*SessionState, error) {
	if s.closed {
		return nil, errors.New("pipeline: cannot snapshot a closed session")
	}
	st := &SessionState{
		Origin:    s.smp.origin,
		Step:      s.smp.step,
		NextTick:  s.smp.next,
		HighWater: s.smp.hw,
		Late:      s.smp.late,
		Outside:   s.smp.outside,
		Shedding:  s.p.shedding.Load(),
		Engine:    s.p.eng.State(),
	}
	for i := range s.smp.slots {
		if sl := &s.smp.slots[i]; sl.idx >= s.smp.next {
			if st.Open == nil {
				st.Open = make(map[int]*predict.Tick, slotCount)
			}
			st.Open[sl.idx] = sl.tick.Clone()
		}
	}
	if s.p.accum != nil {
		st.Accum = s.p.accum.State()
	}
	res := &predict.Result{
		Predictions: append([]predict.Prediction(nil), s.res.Predictions...),
		Stats:       s.res.Stats,
	}
	res.Stats.ChainsUsed = copyCounts(s.res.Stats.ChainsUsed)
	s.p.fillStats(&res.Stats)
	st.Result = res
	return st, nil
}

// ResumeSession arms the pipeline mid-stream from a snapshot taken by
// Session.State. The pipeline must be freshly built over the same model
// the snapshot came from: engine state is resolved by event id and chain
// key, and any mismatch is an error rather than a silently corrupted
// resume. The first tick the resumed session closes is exactly the one
// the snapshotted session would have closed next.
//
//elsa:snapshotter decode
func (p *Pipeline) ResumeSession(st *SessionState) (*Session, error) {
	if st == nil {
		return nil, errors.New("pipeline: nil session state")
	}
	if st.Step != p.eng.Step() {
		return nil, fmt.Errorf("pipeline: snapshot step %v does not match engine step %v",
			st.Step, p.eng.Step())
	}
	if st.Engine == nil {
		return nil, errors.New("pipeline: snapshot missing engine state")
	}
	if err := p.eng.Restore(st.Engine); err != nil {
		return nil, err
	}
	smp, err := resumeSampler(st)
	if err != nil {
		return nil, err
	}
	p.shedding.Store(st.Shedding)
	if p.accum != nil && st.Accum != nil {
		acc, err := sig.RestoreAccumulator(*p.cfg.Accumulate, st.Accum)
		if err != nil {
			return nil, err
		}
		p.accum = acc
	}
	res := p.eng.NewResult()
	if st.Result != nil {
		chainsUsed := res.Stats.ChainsUsed
		res.Predictions = append(res.Predictions, st.Result.Predictions...)
		res.Stats = st.Result.Stats
		if cu := copyCounts(st.Result.Stats.ChainsUsed); cu != nil {
			res.Stats.ChainsUsed = cu
		} else {
			res.Stats.ChainsUsed = chainsUsed
		}
		p.restoreCounters(st.Result.Stats.Stages)
	}
	return &Session{p: p, smp: smp, res: res}, nil
}

// restoreCounters reloads the per-stage throughput counters from a stage
// snapshot, matching stages by name. Supervisor health is not restored:
// a resumed process starts with closed breakers and a fresh failure
// budget (the panics of a previous incarnation say nothing about this
// one), while the cumulative panic counts live on in the snapshot's
// result history.
//
//elsa:snapshotter decode
func (p *Pipeline) restoreCounters(stages []predict.StageStats) {
	for _, ss := range stages {
		for i := range stageNames {
			if stageNames[i] != ss.Name {
				continue
			}
			c := &p.counters[i]
			c.in.Store(ss.In)
			c.out.Store(ss.Out)
			c.dropped.Store(ss.Dropped)
			c.maxQueue.Store(int64(ss.MaxQueue))
			c.wallNanos.Store(int64(ss.Wall))
			c.quarantined.Store(ss.Quarantined)
			c.shed.Store(ss.Shed)
		}
	}
}

// resumeSampler rebuilds the sampler cursor and its open ticks from a
// snapshot, refusing what Session.State could not have written: a
// cursor behind tick 0 or behind the ticks its high-water mark made due,
// an open tick outside [NextTick, NextTick+DefaultGraceTicks], or one
// whose record count is not the sum of its per-event counts.
//
//elsa:snapshotter decode
func resumeSampler(st *SessionState) (*sampler, error) {
	smp := newSampler(st.Origin, st.Step, -1)
	smp.next = st.NextTick
	smp.hw = st.HighWater
	smp.late = st.Late
	smp.outside = st.Outside
	if smp.next < 0 || smp.closeDue() > smp.next {
		return nil, fmt.Errorf("pipeline: snapshot cursor %d is behind tick 0 or its high-water mark %v",
			st.NextTick, st.HighWater)
	}
	for idx, t := range st.Open {
		if t == nil {
			continue
		}
		if idx < smp.next || idx-smp.next > DefaultGraceTicks {
			return nil, fmt.Errorf("pipeline: snapshot holds open tick %d outside [%d, %d]",
				idx, smp.next, smp.next+DefaultGraceTicks)
		}
		sum := 0
		for _, c := range t.Counts.All() {
			if c.N < 1 || c.N > t.N-sum {
				sum = -1 // a count no record total can hold
				break
			}
			sum += c.N
		}
		if sum != t.N {
			return nil, fmt.Errorf("pipeline: snapshot's open tick %d holds %d records, not the sum of its counts",
				idx, t.N)
		}
		*smp.claim(idx) = *t.Clone()
		smp.buffered += t.N
	}
	return smp, nil
}

func copyCounts(m map[string]int) map[string]int {
	if m == nil {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
