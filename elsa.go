// Package elsa is the public API of the ELSA hybrid fault-prediction
// toolkit, a reproduction of "Fault prediction under the microscope: a
// closer look into HPC systems" (Gainaru, Cappello, Snir, Kramer —
// SC 2012).
//
// The pipeline has two phases. The offline phase takes a training window
// of system-log records, mines message templates (event types), extracts a
// signal per event type, characterises each signal as periodic, noise or
// silent, filters outliers, and grows correlation chains by feeding
// cross-correlation seed pairs into a gradual-itemset miner; a location
// pass then learns each chain's propagation behaviour. The online phase
// streams new records through per-signal outlier filters and matches
// outliers against the chains, emitting predictions that carry the
// expected failure time, the visible prediction window (net of analysis
// time) and the predicted location scope.
//
// Minimal usage:
//
//	log := elsa.GenerateBGL(42, start, 10*24*time.Hour) // or load real records
//	train, test, truth := log.Split(start.Add(3 * 24 * time.Hour))
//	model := elsa.Train(train, start, start.Add(3*24*time.Hour), elsa.DefaultTrainConfig())
//	result := model.Predict(test, model.TrainEnd(), log.End)
//	outcome := elsa.Evaluate(result, truth, elsa.DefaultMatchConfig())
//	fmt.Println(outcome)
package elsa

import (
	"context"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/evaluate"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/pipeline"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// Core data types, re-exported for downstream users.
type (
	// Record is one parsed log line.
	Record = logs.Record
	// Severity grades a record (INFO .. FAILURE).
	Severity = logs.Severity
	// Location identifies a hardware component.
	Location = topology.Location
	// Scope is a machine-hierarchy level (node .. system).
	Scope = topology.Scope
	// Prediction is one emitted failure forecast.
	Prediction = predict.Prediction
	// PredictResult bundles predictions with run statistics.
	PredictResult = predict.Result
	// StageStats is one pipeline stage's counter snapshot (records in and
	// out, drops, max queue depth, wall time); a run's stage counters are
	// in PredictResult.Stats.Stages.
	StageStats = predict.StageStats
	// RecordSource is a pull-based record iterator: PredictSource and the
	// pipeline consume sources, so callers never need the whole log in
	// memory.
	RecordSource = logs.RecordSource
	// Failure is a ground-truth fault instance (from the generator or an
	// annotated real log).
	Failure = gen.FailureRecord
	// Outcome is an evaluation result (precision, recall, breakdowns).
	Outcome = evaluate.Outcome
	// MatchConfig tunes prediction-to-failure matching.
	MatchConfig = evaluate.MatchConfig
	// Mode selects the correlation method.
	Mode = correlate.Mode
	// Chain is one extracted correlation sequence.
	Chain = correlate.Chain
)

// Severity levels.
const (
	Info            = logs.Info
	Warning         = logs.Warning
	Error           = logs.Error
	Severe          = logs.Severe
	FailureSeverity = logs.Failure
)

// Correlation methods (the three rows of the paper's Table III).
const (
	Hybrid         = correlate.Hybrid
	SignalOnly     = correlate.SignalOnly
	DataMiningOnly = correlate.DataMiningOnly
)

// TrainConfig bundles the offline-phase parameters.
type TrainConfig struct {
	// Mode selects the correlation method (default Hybrid).
	Mode Mode
	// Correlation tunes signal extraction, outlier calibration, seeding
	// and mining.
	Correlation correlate.Config
	// HELOThreshold is the template-merge similarity (0 = default). Keep
	// it in (0, 1]: above 1 nothing merges, and LoadModel refuses a model
	// saved with such a value.
	HELOThreshold float64
}

// DefaultTrainConfig returns the configuration used in the paper
// reproduction experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Mode: Hybrid, Correlation: correlate.DefaultConfig()}
}

// Model is a trained fault-prediction model: correlation chains, per-event
// behaviour profiles and propagation profiles, plus the template organizer
// that keeps assigning event ids online.
type Model struct {
	inner     *correlate.Model
	profiles  map[string]*location.Profile
	organizer *helo.Organizer
	// trainCfg is the offline-phase configuration the model was trained
	// with; incremental refresh re-derives chains under the same
	// parameters. Loaded models fall back to the defaults.
	trainCfg TrainConfig
	// window is the training span in sampling ticks, read when the model
	// is trained or loaded (Refresh moves the inner TrainEnd): the length
	// of the live window a monitor's Refresh scores, see pipelineConfig.
	window int
}

// trainingSpan is the model's training window in sampling ticks; 0 when
// a hand-edited model file leaves it undefined.
func trainingSpan(m *correlate.Model) int {
	if m.Step <= 0 {
		return 0
	}
	return int(m.TrainEnd.Sub(m.TrainStart) / m.Step)
}

// Train builds a model from training records covering [start, end).
// Records may be in any order and need not carry event ids; Train sorts
// them and runs template mining itself.
func Train(records []Record, start, end time.Time, cfg TrainConfig) *Model {
	recs := append([]Record(nil), records...)
	logs.SortByTime(recs)
	org := helo.New(cfg.HELOThreshold)
	org.Assign(recs)
	m := correlate.Train(recs, start, end, cfg.Mode, cfg.Correlation)
	profiles := location.Extract(recs, m.Chains, start, m.Step, 1)
	return &Model{inner: m, profiles: profiles, organizer: org, trainCfg: cfg, window: trainingSpan(m)}
}

// Mode returns the correlation method the model was trained with.
func (m *Model) Mode() Mode { return m.inner.Mode }

// TrainEnd returns the end of the training window.
func (m *Model) TrainEnd() time.Time { return m.inner.TrainEnd }

// Chains returns every extracted correlation chain.
func (m *Model) Chains() []Chain { return m.inner.Chains }

// PredictiveChains returns the chains usable for failure prediction (at
// least one non-informational event type).
func (m *Model) PredictiveChains() []Chain { return m.inner.PredictiveChains() }

// EventTemplate returns the mined template text for an event id.
func (m *Model) EventTemplate(event int) string {
	text, _ := m.organizer.Pattern(event)
	return text
}

// EventCount returns the number of event types mined during training.
func (m *Model) EventCount() int { return m.organizer.Len() }

// PredictConfig re-exports the online engine configuration.
type PredictConfig = predict.Config

// DefaultPredictConfig returns the engine parameters used in the
// reproduction experiments.
func DefaultPredictConfig() PredictConfig { return predict.DefaultConfig() }

// Predict streams records through the online phase over [start, end) with
// the default engine configuration. Records without event ids are stamped
// by the model's template organizer (which keeps learning new templates,
// as HELO does online).
//
// Batch prediction is a replay: the records run through the same
// internal/pipeline stage graph a live Monitor executes, driven from an
// in-memory source. The per-stage counters land in Stats.Stages.
func (m *Model) Predict(records []Record, start, end time.Time) *PredictResult {
	return m.PredictWith(records, start, end, DefaultPredictConfig())
}

// PredictWith is Predict with an explicit engine configuration.
func (m *Model) PredictWith(records []Record, start, end time.Time, cfg PredictConfig) *PredictResult {
	recs := append([]Record(nil), records...)
	logs.SortByTime(recs)
	// A slice source cannot fail and the background context never
	// cancels, so the replay always completes.
	res, _ := m.PredictSource(context.Background(), logs.NewSliceSource(recs), start, end, cfg)
	return res
}

// PredictSource streams records pulled from src through the online phase
// over [start, end) without materialising the log in memory. Records must
// arrive roughly in time order (the pipeline tolerates one sampling tick
// of lateness; older records are dropped and counted). On context
// cancellation or a source failure the partial result is returned
// alongside the error.
func (m *Model) PredictSource(ctx context.Context, src RecordSource, start, end time.Time, cfg PredictConfig) (*PredictResult, error) {
	engine := predict.NewEngine(m.inner, m.profiles, cfg)
	p := pipeline.New(engine, m.organizer, pipeline.DefaultConfig())
	return p.Run(ctx, src, start, end)
}

// DefaultMatchConfig returns the evaluation matching rule used in the
// experiments.
func DefaultMatchConfig() MatchConfig { return evaluate.DefaultMatchConfig() }

// Evaluate scores a prediction run against ground-truth failures.
func Evaluate(result *PredictResult, failures []Failure, cfg MatchConfig) *Outcome {
	return evaluate.Score(result, failures, cfg)
}
