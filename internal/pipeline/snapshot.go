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
	if len(s.smp.open) > 0 {
		st.Open = make(map[int]*predict.Tick, len(s.smp.open))
		for idx, t := range s.smp.open {
			st.Open[idx] = copyTick(t)
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
	smp := newSampler(st.Origin, st.Step, -1)
	smp.next = st.NextTick
	smp.hw = st.HighWater
	smp.late = st.Late
	smp.outside = st.Outside
	for idx, t := range st.Open {
		if t == nil {
			continue
		}
		if idx < st.NextTick {
			return nil, fmt.Errorf("pipeline: snapshot holds open tick %d behind its cursor %d",
				idx, st.NextTick)
		}
		smp.open[idx] = copyTick(t)
		smp.buffered += t.N
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

// copyTick deep-copies one open tick aggregate.
func copyTick(t *predict.Tick) *predict.Tick {
	c := predict.NewTick()
	c.N = t.N
	for k, v := range t.Counts {
		c.Counts[k] = v
	}
	for k, v := range t.FirstLoc {
		c.FirstLoc[k] = v
	}
	return c
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
