// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic substrate: it owns the end-to-end campaign
// (generate -> HELO -> train -> locate -> predict -> score) and exposes one
// driver per experiment, each returning a structured result with a text
// rendering that mirrors the rows/series the paper reports.
package experiments

import (
	"context"
	"sync"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/evaluate"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/pipeline"
	"github.com/elsa-hpc/elsa/internal/predict"
)

// Scale sets the size of a campaign. The paper trains on 3 months and
// tests on the remainder; the synthetic campaigns compress that to days so
// every experiment reruns in seconds while keeping hundreds of fault
// instances.
type Scale struct {
	TrainDays int
	TestDays  int
	Seed      int64
}

// Quick is the scale used by unit tests and benchmarks.
var Quick = Scale{TrainDays: 2, TestDays: 3, Seed: 42}

// Full is the scale used to produce EXPERIMENTS.md.
var Full = Scale{TrainDays: 5, TestDays: 11, Seed: 42}

// Start is the fixed campaign epoch.
var Start = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

// Campaign holds one generated system plus everything derived from it.
// Derivations are computed lazily and cached; a Campaign is safe for
// concurrent readers after the first access of each layer.
type Campaign struct {
	Profile gen.Profile
	Scale   Scale

	mu        sync.Mutex
	result    *gen.Result
	organizer *helo.Organizer
	train     []logs.Record
	test      []logs.Record
	failures  []gen.FailureRecord
	cut       time.Time

	models   map[correlate.Mode]*correlate.Model
	profiles map[correlate.Mode]map[string]*location.Profile
	runs     map[correlate.Mode]*predict.Result
	outcomes map[correlate.Mode]*evaluate.Outcome
}

// NewCampaign prepares a lazy campaign over the given machine profile.
func NewCampaign(prof gen.Profile, sc Scale) *Campaign {
	return &Campaign{
		Profile:  prof,
		Scale:    sc,
		models:   make(map[correlate.Mode]*correlate.Model),
		profiles: make(map[correlate.Mode]map[string]*location.Profile),
		runs:     make(map[correlate.Mode]*predict.Result),
		outcomes: make(map[correlate.Mode]*evaluate.Outcome),
	}
}

// BGL returns a Blue Gene/L campaign at the given scale.
func BGL(sc Scale) *Campaign { return NewCampaign(gen.BlueGeneL(), sc) }

// MercuryCampaign returns a Mercury campaign at the given scale.
func MercuryCampaign(sc Scale) *Campaign { return NewCampaign(gen.Mercury(), sc) }

// ensureLog generates and stamps the log (idempotent).
func (c *Campaign) ensureLog() {
	if c.result != nil {
		return
	}
	total := time.Duration(c.Scale.TrainDays+c.Scale.TestDays) * 24 * time.Hour
	c.cut = Start.Add(time.Duration(c.Scale.TrainDays) * 24 * time.Hour)
	c.result = gen.New(c.Profile, c.Scale.Seed).Generate(Start, total)
	c.organizer = helo.New(0)
	c.organizer.Assign(c.result.Records)
	c.train, c.test, c.failures = c.result.Split(c.cut)
}

// Log returns the full generated result.
func (c *Campaign) Log() *gen.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLog()
	return c.result
}

// Organizer returns the HELO instance that stamped the log.
func (c *Campaign) Organizer() *helo.Organizer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLog()
	return c.organizer
}

// TestRecords returns the test window.
func (c *Campaign) TestRecords() []logs.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLog()
	return c.test
}

// TestFailures returns the ground-truth faults in the test window.
func (c *Campaign) TestFailures() []gen.FailureRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLog()
	return c.failures
}

// Cut returns the train/test boundary.
func (c *Campaign) Cut() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLog()
	return c.cut
}

// Model trains (once) and returns the correlation model for a mode.
func (c *Campaign) Model(mode correlate.Mode) *correlate.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLog()
	if m, ok := c.models[mode]; ok {
		return m
	}
	m := correlate.Train(c.train, Start, c.cut, mode, correlate.DefaultConfig())
	c.models[mode] = m
	return m
}

// LocationProfiles returns the propagation profiles for a mode's chains.
func (c *Campaign) LocationProfiles(mode correlate.Mode) map[string]*location.Profile {
	m := c.Model(mode)
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.profiles[mode]; ok {
		return p
	}
	p := location.Extract(c.train, m.Chains, Start, m.Step, 1)
	c.profiles[mode] = p
	return p
}

// Run executes the online phase for a mode (once) through the product's
// replay driver, pipeline.Run, and returns the result.
func (c *Campaign) Run(mode correlate.Mode) *predict.Result {
	m := c.Model(mode)
	profiles := c.LocationProfiles(mode)
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.runs[mode]; ok {
		return r
	}
	engine := predict.NewEngine(m, profiles, predict.DefaultConfig())
	// A slice source cannot fail and the background context never
	// cancels, so the replay always completes.
	r, _ := pipeline.New(engine, nil, pipeline.DefaultConfig()).
		Run(context.Background(), logs.NewSliceSource(c.test), c.cut, c.result.End)
	c.runs[mode] = r
	return r
}

// Outcome scores a mode's run against ground truth (once).
func (c *Campaign) Outcome(mode correlate.Mode) *evaluate.Outcome {
	r := c.Run(mode)
	c.mu.Lock()
	defer c.mu.Unlock()
	if o, ok := c.outcomes[mode]; ok {
		return o
	}
	o := evaluate.Score(r, c.failures, evaluate.DefaultMatchConfig())
	c.outcomes[mode] = o
	return o
}
