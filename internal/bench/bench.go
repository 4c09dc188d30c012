// Package bench drives the training-path benchmarks programmatically and
// emits one trajectory point of the perf record (BENCH_train.json). It
// generates a BG/L-profile log scaled to a target event-type count, runs
// the seeding, mining, training and pipeline stages under
// testing.Benchmark, and reports ns/op, allocs/op and how much of the
// pair space the prefilter pruned versus scored.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/gradual"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/sig"
)

// Options configures a benchmark run.
type Options struct {
	// EventTypes is the target number of distinct event templates in the
	// generated log (default 200, the profile the perf trajectory
	// tracks). The BG/L base profile is padded with synthetic monitor
	// daemons until the target is reached.
	EventTypes int
	// Duration is the generated log length (default 24h).
	Duration time.Duration
	// Seed drives the log generator.
	Seed int64
}

// Measurement is one benchmark result.
type Measurement struct {
	Name        string             `json:"name"`
	N           int                `json:"n"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the JSON document elsabench writes.
type Report struct {
	Profile        string `json:"profile"`
	EventTypes     int    `json:"event_types"`
	Records        int    `json:"records"`
	HorizonSamples int    `json:"horizon_samples"`
	GoVersion      string `json:"go_version"`
	GOOS           string `json:"goos"`
	GOARCH         string `json:"goarch"`
	NumCPU         int    `json:"num_cpu"`
	// Pairs is the prefilter's pruning report from the hybrid training
	// run: candidates is the blind E*(E-1) space, scored is what actually
	// reached the kernel.
	Pairs       sig.PairStats `json:"pairs"`
	PairsPruned int           `json:"pairs_pruned"`
	Benchmarks  []Measurement `json:"benchmarks"`
}

// ScaledBGL pads the Blue Gene/L profile with synthetic periodic monitor
// daemons until the generated log shows roughly target distinct event
// types. Each daemon's message carries several daemon-specific tokens so
// HELO (similarity threshold 0.6) keeps the templates apart.
func ScaledBGL(target int) gen.Profile {
	p := gen.BlueGeneL()
	// The base profile yields ~43 templates on a one-day log; every extra
	// daemon adds one.
	const baseTemplates = 43
	for i := 0; target > baseTemplates && i < target-baseTemplates; i++ {
		p.Daemons = append(p.Daemons, gen.DaemonSpec{
			Name:      fmt.Sprintf("synth%03d", i),
			Component: fmt.Sprintf("SYN%02d", i%20),
			Severity:  logs.Info,
			// Three daemon-specific tokens out of five keep the similarity
			// to any sibling template at 0.4, below HELO's 0.6 merge
			// threshold, so each daemon yields its own event type.
			Message: fmt.Sprintf("chan%d p%d s%d reading d+",
				i, 7*i+1, 13*i+5),
			Period: time.Duration(97+13*(i%50)) * time.Second,
		})
	}
	p.Name = fmt.Sprintf("bgl%d", target)
	return p
}

// Run generates the log, executes the benchmark suite and returns the
// report.
func Run(opts Options) (*Report, error) {
	if opts.EventTypes <= 0 {
		opts.EventTypes = 200
	}
	if opts.Duration <= 0 {
		opts.Duration = 24 * time.Hour
	}
	start := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	profile := ScaledBGL(opts.EventTypes)
	res := gen.New(profile, opts.Seed+1).Generate(start, opts.Duration)
	helo.New(0).Assign(res.Records)

	ids := make(map[int]bool)
	for _, r := range res.Records {
		ids[r.EventID] = true
	}
	cfg := correlate.DefaultConfig()
	horizon := int(res.End.Sub(res.Start) / cfg.Step)
	rep := &Report{
		Profile:        profile.Name,
		EventTypes:     len(ids),
		Records:        len(res.Records),
		HorizonSamples: horizon,
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		NumCPU:         runtime.NumCPU(),
	}

	// Raw occurrence trains for the seeding/mining stage benchmarks (the
	// same construction the top-level stage benchmarks use).
	trains := make(sig.SpikeTrains)
	for _, r := range res.Records {
		t := int(r.Time.Sub(res.Start) / cfg.Step)
		tr := trains[r.EventID]
		if len(tr) == 0 || tr[len(tr)-1] != t {
			trains[r.EventID] = append(tr, t)
		}
	}
	ccfg := sig.DefaultCrossCorrConfig()
	ccfg.Horizon = horizon

	// Seeding: the prefiltered fast path against the blind enumeration it
	// replaced, so the improvement factor is recorded alongside the
	// absolute numbers.
	var seedStats sig.PairStats
	rep.add("seed/all_pairs", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, seedStats = sig.AllPairsStats(trains, ccfg)
		}
	}), map[string]float64{})
	rep.add("seed/all_pairs_reference", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blindAllPairs(trains, ccfg)
		}
	}), map[string]float64{})
	rep.extendLast(-2, map[string]float64{
		"pairs_candidates": float64(seedStats.Candidates),
		"pairs_scored":     float64(seedStats.Scored),
		"pairs_pruned":     float64(seedStats.Pruned()),
		"pairs_kept":       float64(seedStats.Kept),
	})

	// Mining on the seeded pairs.
	seeds := sig.AllPairs(trains, ccfg)
	var chains int
	rep.add("mine/hybrid", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			chains = len(gradual.Mine(trains, seeds, gradual.DefaultConfig(horizon)))
		}
	}), map[string]float64{})
	rep.extendLast(-1, map[string]float64{"chains": float64(chains)})

	// Full training in the three Table III modes.
	var hybrid *correlate.Model
	for _, mode := range []correlate.Mode{correlate.Hybrid, correlate.SignalOnly, correlate.DataMiningOnly} {
		mode := mode
		var model *correlate.Model
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model = correlate.Train(res.Records, res.Start, res.End, mode, cfg)
			}
		})
		rep.add("train/"+mode.String(), r, map[string]float64{
			"chains":           float64(len(model.Chains)),
			"pairs_candidates": float64(model.Stats.Pairs.Candidates),
			"pairs_scored":     float64(model.Stats.Pairs.Scored),
			"pairs_pruned":     float64(model.Stats.Pairs.Pruned()),
		})
		if mode == correlate.Hybrid {
			hybrid = model
			rep.Pairs = model.Stats.Pairs
			rep.PairsPruned = model.Stats.Pairs.Pruned()
		}
	}

	// Pipeline: the online engine replaying the whole day against the
	// hybrid model, the stage the streaming monitor and batch predictor
	// share.
	profiles := location.Extract(res.Records, hybrid.Chains, res.Start, hybrid.Step, 1)
	var preds int
	rep.add("pipeline/predict", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine := predict.NewEngine(hybrid, profiles, predict.DefaultConfig())
			out := engine.Run(res.Records, res.Start, res.End)
			preds = len(out.Predictions)
		}
	}), map[string]float64{})
	rep.extendLast(-1, map[string]float64{"predictions": float64(preds)})

	benchRefresh(rep, res, trains, hybrid, cfg, horizon)
	benchKernels(rep, opts.Seed, horizon)

	return rep, nil
}

// benchRefresh measures the steady-state incremental retraining round: an
// accumulator replays the day's tick stream once (outside timing, as the
// monitor's tap would have built it live), the model primes with the
// initial full mine, then each measured round closes one more tick and
// refreshes — the per-round cost elsamon's -refresh-every pays, versus
// retraining from scratch. The mean folds in the rate-limited full
// mines (one per remineEvery rounds under seed churn) alongside the
// re-score fast path.
func benchRefresh(rep *Report, res *gen.Result, trains sig.SpikeTrains, hybrid *correlate.Model, cfg correlate.Config, horizon int) {
	byTick := make(map[int][]int)
	for id, tr := range trains {
		for _, t := range tr {
			byTick[t] = append(byTick[t], id)
		}
	}
	for _, evs := range byTick {
		sort.Ints(evs)
	}
	benchObserveTick(rep, byTick, cfg, horizon)
	observe := func(acc *sig.Accumulator, tick, pattern int) {
		evs := byTick[pattern]
		counts := make(map[int]int, len(evs))
		for _, id := range evs {
			counts[id] = 1
		}
		acc.ObserveTick(tick, counts, evs)
	}

	acfg := correlate.AccumConfigFor(correlate.Hybrid, cfg)
	acfg.HorizonCap = horizon
	acc := sig.NewAccumulator(acfg)
	for t := 0; t < horizon; t++ {
		observe(acc, t, t)
	}
	hybrid.Refresh(acc, cfg) // prime: the initial full mine is not the steady state

	next := horizon
	var rst correlate.RefreshStats
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			observe(acc, next, next%horizon) // one closed tick between rounds
			next++
			b.StartTimer()
			rst = hybrid.Refresh(acc, cfg)
		}
	})
	extra := map[string]float64{
		"dirty_pairs": float64(rst.Dirty),
		"seeds":       float64(rst.Seeds),
		"chains":      float64(rst.Chains),
	}
	if trainNs := rep.lookupNs("train/hybrid"); trainNs > 0 {
		extra["speedup_vs_train"] = trainNs / float64(r.NsPerOp())
	}
	rep.add("refresh/incremental", r, extra)
}

// benchObserveTick measures the accumulator's share of a tick close, the
// row CI gates: the day's outlier hit sets (byTick, sorted) replayed in a
// loop through an accumulator that has already seen the whole day once —
// every event id known, the counter table grown, a full MaxLag window in
// the ring — and is held in the exact regime. Allocations must read 0.
func benchObserveTick(rep *Report, byTick map[int][]int, cfg correlate.Config, horizon int) {
	acfg := correlate.AccumConfigFor(correlate.Hybrid, cfg)
	acfg.Budget = math.MaxInt // the loop would blow any real budget; the bucket path is not what a monitor runs
	acfg.HorizonCap = horizon
	acc := sig.NewAccumulator(acfg)
	next, hits := 0, 0
	observe := func() {
		acc.ObserveTick(next, nil, byTick[next%horizon])
		next++
	}
	for next < horizon {
		hits += len(byTick[next])
		observe()
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			observe()
		}
	})
	extra := map[string]float64{
		"hits_per_tick": float64(hits) / float64(horizon),
		"events":        float64(acc.Events()),
	}
	if acc.Exact() {
		extra["exact"] = 1 // absent fails the CI gate: the row would have timed the bucket path
	}
	rep.add("accum/observe_tick", r, extra)
}

// benchKernels races the FFT cross-correlation kernel against the frozen
// sliding-window sweep over one dense pair in the wide-lag regime, and
// sweeps the spike density to locate the measured crossover — the
// density above which the dispatcher's FFT pick wins on this machine.
func benchKernels(rep *Report, seed int64, horizon int) {
	span := horizon
	kcfg := sig.DefaultCrossCorrConfig()
	kcfg.Horizon = span
	kcfg.MaxLag = 2048
	if kcfg.MaxLag > span/4 {
		kcfg.MaxLag = span / 4
	}
	kcfg.MinCount = 1
	kcfg.MinScore = 0

	rng := rand.New(rand.NewSource(seed + 7))
	makeTrain := func(density float64) []int {
		out := make([]int, 0, int(density*float64(span))+1)
		for t := 0; t < span; t++ {
			if rng.Float64() < density {
				out = append(out, t)
			}
		}
		if len(out) == 0 {
			out = append(out, 0)
		}
		return out
	}
	var scratch sig.Scratch
	race := func(a, b []int, kind sig.KernelKind) testing.BenchmarkResult {
		cfg := kcfg
		cfg.Kernel = kind
		return testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				scratch.CrossCorrelate(a, b, cfg)
			}
		})
	}

	densities := []float64{0.02, 0.05, 0.1, 0.2, 0.4}
	crossover := 0.0
	var sliding, fftRes testing.BenchmarkResult
	for _, d := range densities {
		a, b := makeTrain(d), makeTrain(d)
		sliding = race(a, b, sig.KernelSliding)
		fftRes = race(a, b, sig.KernelFFT)
		if crossover == 0 && fftRes.NsPerOp() <= sliding.NsPerOp() {
			crossover = d
		}
	}
	rep.add("kernel/fft-vs-sliding", fftRes, map[string]float64{
		"density":            densities[len(densities)-1],
		"max_lag":            float64(kcfg.MaxLag),
		"sliding_ns_per_op":  float64(sliding.NsPerOp()),
		"speedup_vs_sliding": float64(sliding.NsPerOp()) / float64(fftRes.NsPerOp()),
		"crossover_density":  crossover,
	})
}

// blindAllPairs is the pre-fast-path seeding reference: every ordered
// pair through a frozen copy of the pre-change kernel (binary search per
// spike, fresh histogram allocations, full lag scan). It is kept verbatim
// so the seed/all_pairs vs seed/all_pairs_reference comparison keeps
// measuring the fast path against what the code used to do, not against a
// baseline that silently inherits kernel improvements.
func blindAllPairs(trains sig.SpikeTrains, cfg sig.CrossCorrConfig) []sig.PairCorrelation {
	ids := make([]int, 0, len(trains))
	for id := range trains {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []sig.PairCorrelation
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			delay, count, score, ok := referenceCrossCorrelate(trains[a], trains[b], cfg)
			if !ok || (delay == 0 && a > b) {
				continue
			}
			out = append(out, sig.PairCorrelation{A: a, B: b, Delay: delay, Count: count, Score: score})
		}
	}
	return out
}

// referenceCrossCorrelate is the frozen pre-change cross-correlation
// kernel: binary search per source spike, fresh hist/prefix allocations on
// every call, full 0..MaxLag scan. Verbatim from the code the fast path
// replaced; also frozen (with the same intent) in internal/sig's
// equivalence tests.
func referenceCrossCorrelate(a, b []int, cfg sig.CrossCorrConfig) (delay, count int, score float64, ok bool) {
	if len(a) == 0 || len(b) == 0 || cfg.MaxLag < 0 {
		return 0, 0, 0, false
	}
	hist := make([]int, cfg.MaxLag+1)
	for _, t := range a {
		lo := sort.SearchInts(b, t)
		for j := lo; j < len(b) && b[j]-t <= cfg.MaxLag; j++ {
			hist[b[j]-t]++
		}
	}
	prefix := make([]int, len(hist)+1)
	for i, h := range hist {
		prefix[i+1] = prefix[i] + h
	}
	window := func(lo, hi int) int {
		if lo < 0 {
			lo = 0
		}
		if hi > cfg.MaxLag {
			hi = cfg.MaxLag
		}
		if lo > hi {
			return 0
		}
		return prefix[hi+1] - prefix[lo]
	}
	best, bestCount, bestRaw := -1, 0, 0
	bestDensity := 0.0
	for lag := 0; lag <= cfg.MaxLag; lag++ {
		tol := sig.DelayTolerance(lag, cfg.Tolerance)
		c := window(lag-tol, lag+tol)
		if c == 0 {
			continue
		}
		density := float64(c) / float64(2*tol+1)
		if density > bestDensity || (density == bestDensity && hist[lag] > bestRaw) {
			best, bestCount, bestRaw, bestDensity = lag, c, hist[lag], density
		}
	}
	if best < 0 || bestCount < cfg.MinCount {
		return 0, 0, 0, false
	}
	norm := math.Sqrt(float64(len(a)) * float64(len(b)))
	sc := float64(bestCount) / norm
	if conf := float64(bestCount) / float64(len(a)); !cfg.SymmetricOnly && conf > sc && referenceLiftOK(conf, best, len(b), cfg) {
		sc = conf
	}
	if sc > 1 {
		sc = 1
	}
	if sc < cfg.MinScore {
		return 0, 0, 0, false
	}
	return best, bestCount, sc, true
}

// referenceLiftOK mirrors the kernel's confidence-lift gate for the frozen
// reference.
func referenceLiftOK(conf float64, lag, nb int, cfg sig.CrossCorrConfig) bool {
	if cfg.Horizon <= 0 {
		return true
	}
	minLift := cfg.MinLift
	if minLift <= 0 {
		minLift = 4
	}
	width := float64(2*sig.DelayTolerance(lag, cfg.Tolerance) + 1)
	random := width * float64(nb) / float64(cfg.Horizon)
	return conf >= minLift*random
}

// add appends one testing.BenchmarkResult under the given name.
func (r *Report) add(name string, br testing.BenchmarkResult, extra map[string]float64) {
	m := Measurement{
		Name:        name,
		N:           br.N,
		NsPerOp:     float64(br.NsPerOp()),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}
	if len(extra) > 0 {
		m.Extra = extra
	}
	r.Benchmarks = append(r.Benchmarks, m)
}

// lookupNs returns a recorded benchmark's ns/op, or 0 if absent.
func (r *Report) lookupNs(name string) float64 {
	for _, m := range r.Benchmarks {
		if m.Name == name {
			return m.NsPerOp
		}
	}
	return 0
}

// extendLast merges extra metrics into the measurement at offset from the
// end (-1 = last).
func (r *Report) extendLast(offset int, extra map[string]float64) {
	i := len(r.Benchmarks) + offset
	if i < 0 || i >= len(r.Benchmarks) {
		return
	}
	if r.Benchmarks[i].Extra == nil {
		r.Benchmarks[i].Extra = map[string]float64{}
	}
	for k, v := range extra {
		r.Benchmarks[i].Extra[k] = v
	}
}

// WriteJSON writes the report, indented, to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders a human-readable table of the report.
func (r *Report) Summary() string {
	s := fmt.Sprintf("profile %s: %d event types, %d records, %d samples (%s, %d cpu)\n",
		r.Profile, r.EventTypes, r.Records, r.HorizonSamples, r.GoVersion, r.NumCPU)
	s += fmt.Sprintf("pair space: %d candidates, %d scored, %d pruned, %d kept\n",
		r.Pairs.Candidates, r.Pairs.Scored, r.PairsPruned, r.Pairs.Kept)
	for _, m := range r.Benchmarks {
		s += fmt.Sprintf("  %-26s %12.0f ns/op %10d B/op %8d allocs/op\n",
			m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	return s
}
