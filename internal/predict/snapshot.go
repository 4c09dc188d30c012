package predict

import (
	"fmt"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/outlier"
	"github.com/elsa-hpc/elsa/internal/stats"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// EngineState is the serialisable online state of an Engine: the dense
// outlier-filter windows, the partially matched chain instances, and the
// per-chain adaptive-window trackers. Together with the sampler cursor
// (owned by internal/pipeline) it is everything a crashed monitor needs
// to resume mid-stream without retraining and without double-emitting.
//
//elsa:snapshot-envelope
type EngineState struct {
	Detectors map[int]outlier.DetectorState `json:"detectors,omitempty"`
	Active    []InstanceState               `json:"active,omitempty"`
	Spans     map[string]SpanState          `json:"spans,omitempty"`
}

// InstanceState is one partially matched chain occurrence. The chain is
// referenced by its stable key; Restore resolves it against the model.
type InstanceState struct {
	ChainKey  string            `json:"chain"`
	StartTick int               `json:"start_tick"`
	Matched   []bool            `json:"matched"`
	Trigger   topology.Location `json:"trigger"`
	Fired     bool              `json:"fired,omitempty"`
}

// SpanState is one chain's confirmed-delay tracker.
type SpanState struct {
	Q10 stats.QuantileState `json:"q10"`
	Q90 stats.QuantileState `json:"q90"`
	N   int                 `json:"n"`
}

// State snapshots the engine's online state. The active-instance order
// is preserved exactly: prediction emission order depends on it, and the
// resume contract is bit-identical continuation.
//
//elsa:snapshotter encode
func (e *Engine) State() *EngineState {
	st := &EngineState{
		Detectors: make(map[int]outlier.DetectorState, len(e.detectors)),
		Active:    make([]InstanceState, 0, len(e.active)),
		Spans:     make(map[string]SpanState, len(e.spans)),
	}
	for _, d := range e.detectors {
		st.Detectors[d.id] = d.det.State()
	}
	for _, in := range e.active {
		st.Active = append(st.Active, InstanceState{
			ChainKey:  in.chain.Key(),
			StartTick: in.startTick,
			Matched:   append([]bool(nil), in.matched...),
			Trigger:   in.trigger,
			Fired:     in.fired,
		})
	}
	for key, tr := range e.spans {
		st.Spans[key] = SpanState{Q10: tr.q10.State(), Q90: tr.q90.State(), N: tr.n}
	}
	return st
}

// Restore replaces the engine's online state with a snapshot taken by
// State. It must be called on a freshly built engine over the same model
// the snapshot was taken from: detector ids and chain keys are resolved
// against the model, and any mismatch is an error (the snapshot belongs
// to a different model, resuming would corrupt predictions silently).
//
//elsa:snapshotter decode
func (e *Engine) Restore(st *EngineState) error {
	if st == nil {
		return fmt.Errorf("predict: nil engine state")
	}
	byKey := make(map[string]*correlate.Chain, len(e.chains))
	for i := range e.chains {
		byKey[e.chains[i].Key()] = &e.chains[i]
	}
	for id, ds := range st.Detectors {
		i := e.detectors.index(id)
		if i < 0 {
			return fmt.Errorf("predict: snapshot has detector state for unknown event %d", id)
		}
		if err := e.detectors[i].det.Restore(ds); err != nil {
			return fmt.Errorf("predict: event %d: %w", id, err)
		}
	}
	e.active = e.active[:0]
	for i, is := range st.Active {
		c, ok := byKey[is.ChainKey]
		if !ok {
			return fmt.Errorf("predict: snapshot instance %d references unknown chain %q", i, is.ChainKey)
		}
		if len(is.Matched) != len(c.Items) {
			return fmt.Errorf("predict: snapshot instance %d has %d match slots, chain %q has %d items",
				i, len(is.Matched), is.ChainKey, len(c.Items))
		}
		in := &instance{
			chain:     c,
			startTick: is.StartTick,
			matched:   append([]bool(nil), is.Matched...),
			trigger:   is.Trigger,
			fired:     is.Fired,
		}
		for _, m := range in.matched {
			if m {
				in.nMatched++
			}
		}
		e.active = append(e.active, in)
	}
	e.spans = make(map[string]*spanTracker, len(st.Spans))
	for key, ss := range st.Spans {
		e.spans[key] = &spanTracker{
			q10: stats.RestoreStreamingQuantile(ss.Q10),
			q90: stats.RestoreStreamingQuantile(ss.Q90),
			n:   ss.N,
		}
	}
	return nil
}
