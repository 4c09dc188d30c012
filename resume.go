package elsa

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/pipeline"
	"github.com/elsa-hpc/elsa/internal/predict"
)

// monitorEnvelope is the on-disk form of a running monitor's resumable
// state: the organizer's full template set (including shapes learned
// online since training, so resumed stamping keeps the same event ids)
// and the session state — sampler cursor, open tick aggregates, signal
// windows, partially matched chains and the accumulated result. It is
// written next to, and versioned independently of, the model envelope.
//
//elsa:snapshot-envelope
type monitorEnvelope struct {
	Version int                    `json:"version"`
	Start   time.Time              `json:"start"`
	HELO    heloEnvelope           `json:"helo"`
	Session *pipeline.SessionState `json:"session"`
	// Ingest is the backend resume point at snapshot time, when the feed
	// is offset-addressable (file, segment dir). Omitted otherwise, which
	// also keeps version-1 snapshots from before this field readable.
	Ingest *IngestOffset `json:"ingest,omitempty"`

	// Refresh, Chains and Severity persist the incremental retraining
	// state once Monitor.Refresh has run: the session's engine state
	// references chains by key, so a resume must install the refreshed
	// chain set (not the originally trained one) before rebuilding the
	// engine. All omitted while the monitor has never refreshed, which
	// keeps pre-refresh snapshots byte-compatible.
	Refresh  *correlate.RefreshState `json:"refresh,omitempty"`
	Chains   []Chain                 `json:"chains,omitempty"`
	Severity map[int]Severity        `json:"severity,omitempty"`
}

// monitorFormatVersion increments on breaking changes to the envelope.
const monitorFormatVersion = 4

// Snapshot writes the monitor's resumable state as versioned JSON. Taken
// periodically (and on shutdown), it lets a crashed or restarted process
// continue mid-stream via Model.ResumeMonitor — without retraining,
// without re-emitting predictions already delivered and without losing
// the ones still pending in open ticks. Snapshotting a closed monitor is
// an error: its open ticks were already flushed, so a resume would
// double-emit their predictions.
//
//elsa:snapshotter encode
//elsa:requires open
func (mo *Monitor) Snapshot(w io.Writer) error {
	st, err := mo.session.State()
	if err != nil {
		return fmt.Errorf("elsa: snapshot monitor: %w", err)
	}
	env := monitorEnvelope{
		Version: monitorFormatVersion,
		Start:   st.Origin,
		HELO: heloEnvelope{
			Threshold: mo.model.organizer.Threshold(),
			Templates: mo.model.organizer.Templates(),
		},
		Session: st,
		Ingest:  mo.ingestOff,
	}
	if rst := mo.model.inner.RefreshState(); rst != nil {
		env.Refresh = rst
		env.Chains = mo.model.inner.Chains
		env.Severity = mo.model.inner.Severity
	}
	if err := json.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("elsa: snapshot monitor: %w", err)
	}
	return nil
}

// ResumeMonitor rebuilds a monitor mid-stream from a snapshot written by
// Monitor.Snapshot, using the default engine configuration. The model
// must be the one the snapshotted monitor ran over (typically reloaded
// via LoadModel): snapshot state references it by event id and chain
// key, and any mismatch is an error rather than a silently corrupted
// resume. The model's template organizer is replaced by the snapshot's —
// the superset of the trained templates plus everything the crashed
// monitor learned online.
//
// Feeding the resumed monitor the records after the snapshot point
// yields exactly the predictions the uninterrupted monitor would have
// emitted from there: none repeated, none missing.
func (m *Model) ResumeMonitor(r io.Reader) (*Monitor, error) {
	return m.ResumeMonitorWith(r, DefaultPredictConfig())
}

// ResumeMonitorWith is ResumeMonitor with an explicit engine
// configuration, which must match the one the snapshotted monitor ran
// with (the sampling step is validated; the rest is the caller's
// contract, as for LoadModel).
//
//elsa:snapshotter decode
func (m *Model) ResumeMonitorWith(r io.Reader, cfg PredictConfig) (*Monitor, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("elsa: resume monitor: %w", err)
	}
	if err := checkVersion("monitor snapshot", data, monitorFormatVersion); err != nil {
		return nil, err
	}
	var env monitorEnvelope
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("elsa: resume monitor: %w", err)
	}
	if env.Session == nil {
		return nil, fmt.Errorf("elsa: monitor snapshot missing session state")
	}
	org, err := restoreOrganizer(env.HELO)
	if err != nil {
		return nil, fmt.Errorf("elsa: resume monitor: %w", err)
	}
	m.organizer = org
	if env.Refresh != nil {
		// The snapshotted monitor had refreshed: install the refreshed
		// chain set and severity view before the engine resolves the
		// session's chain instances against the model.
		m.inner.Chains = env.Chains
		if env.Severity != nil {
			m.inner.Severity = env.Severity
		}
		m.inner.RestoreRefreshState(env.Refresh)
	}
	engine := predict.NewEngine(m.inner, m.profiles, cfg)
	p := pipeline.New(engine, m.organizer, m.pipelineConfig())
	session, err := p.ResumeSession(env.Session)
	if err != nil {
		return nil, fmt.Errorf("elsa: resume monitor: %w", err)
	}
	return &Monitor{model: m, pipe: p, session: session, ingestOff: env.Ingest}, nil
}
