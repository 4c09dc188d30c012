package elsa

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/location"
)

// modelEnvelope is the on-disk form of a trained model. The format is
// versioned JSON: small enough to inspect by hand, stable enough to ship
// between the training host and the online monitor.
//
//elsa:snapshot-envelope
type modelEnvelope struct {
	Version   int                          `json:"version"`
	HELO      heloEnvelope                 `json:"helo"`
	Model     *correlate.Model             `json:"model"`
	Locations map[string]*location.Profile `json:"locations"`
}

type heloEnvelope struct {
	Threshold float64          `json:"threshold"`
	Templates []*helo.Template `json:"templates"`
}

// modelFormatVersion increments on breaking changes to the envelope.
const modelFormatVersion = 1

// ErrVersionMismatch reports a persisted artefact written under a
// different format version than this build reads, naming both. Check for
// it with errors.As — it is the signal to retrain (models) or discard
// the snapshot and start a fresh monitor (monitor snapshots) rather than
// to treat the file as corrupt.
type ErrVersionMismatch struct {
	Kind string // "model" or "monitor snapshot"
	Got  int
	Want int
}

func (e *ErrVersionMismatch) Error() string {
	return fmt.Sprintf("elsa: %s format version %d, want %d", e.Kind, e.Got, e.Want)
}

// checkVersion probes only the version field, loosely, before the strict
// decode: a file written by a future format must report the version
// mismatch, not whichever unknown field the strict decoder trips on
// first.
func checkVersion(kind string, data []byte, want int) error {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("elsa: load %s: %w", kind, err)
	}
	if probe.Version != want {
		return &ErrVersionMismatch{Kind: kind, Got: probe.Version, Want: want}
	}
	return nil
}

// Save serialises the model as versioned JSON.
func (m *Model) Save(w io.Writer) error {
	env := modelEnvelope{
		Version: modelFormatVersion,
		HELO: heloEnvelope{
			Threshold: m.organizer.Threshold(),
			Templates: m.organizer.Templates(),
		},
		Model:     m.inner,
		Locations: m.profiles,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("elsa: save model: %w", err)
	}
	return nil
}

// LoadModel deserialises a model written by Save. Decoding is strict:
// unknown fields are rejected (a mangled or hand-edited file fails
// loudly instead of silently dropping state), and a file from another
// format version fails with ErrVersionMismatch.
func LoadModel(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("elsa: load model: %w", err)
	}
	if err := checkVersion("model", data, modelFormatVersion); err != nil {
		return nil, err
	}
	var env modelEnvelope
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("elsa: load model: %w", err)
	}
	if env.Model == nil {
		return nil, fmt.Errorf("elsa: model envelope missing model")
	}
	if env.Model.Profiles == nil || env.Model.Thresholds == nil || env.Model.Severity == nil {
		return nil, fmt.Errorf("elsa: model envelope incomplete")
	}
	org, err := restoreOrganizer(env.HELO)
	if err != nil {
		return nil, fmt.Errorf("elsa: load model: %w", err)
	}
	cfg := DefaultTrainConfig()
	cfg.Mode = env.Model.Mode
	if env.Model.Step > 0 {
		cfg.Correlation.Step = env.Model.Step
	}
	return &Model{
		inner:     env.Model,
		profiles:  env.Locations,
		organizer: org,
		trainCfg:  cfg,
		window:    trainingSpan(env.Model),
	}, nil
}

// restoreOrganizer validates a persisted template set before handing it
// to helo.Restore (which panics on malformed input — fine for internal
// callers, wrong for a file read off disk). The threshold is checked
// too: above 1 no message ever merges, so every record would open a
// template and the next one scan them all; Save and Snapshot write the
// effective value, so 0 is never on the wire either.
func restoreOrganizer(env heloEnvelope) (*helo.Organizer, error) {
	if !(env.Threshold > 0 && env.Threshold <= 1) {
		return nil, fmt.Errorf("template threshold %v outside (0, 1]", env.Threshold)
	}
	seen := make([]bool, len(env.Templates))
	for i, t := range env.Templates {
		if t == nil {
			return nil, fmt.Errorf("template %d is null", i)
		}
		if t.ID < 0 || t.ID >= len(env.Templates) || seen[t.ID] {
			return nil, fmt.Errorf("template ids not dense (id %d of %d)", t.ID, len(env.Templates))
		}
		seen[t.ID] = true
	}
	return helo.Restore(env.Threshold, env.Templates), nil
}
