package elsa

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md. Each
// experiment bench regenerates its table/figure at the Quick scale and
// reports the headline numbers as custom metrics, so `go test -bench=.`
// doubles as the reproduction harness.

import (
	"context"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/experiments"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/gradual"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/outlier"
	"github.com/elsa-hpc/elsa/internal/pipeline"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/sig"
)

func benchCampaign() *experiments.Campaign { return experiments.BGL(experiments.Quick) }

func BenchmarkFig1SignalClasses(b *testing.B) {
	c := benchCampaign()
	var r *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig1(c)
	}
	b.ReportMetric(float64(r.Counts[sig.Silent])/float64(r.Total)*100, "%silent")
	b.ReportMetric(float64(r.Total), "event-types")
}

func BenchmarkFig3OutlierFilter(b *testing.B) {
	var r *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3(int64(i + 1))
	}
	b.ReportMetric(float64(r.Detected)/float64(r.InjectedSpikes)*100, "%detected")
}

func BenchmarkFig4Binarise(b *testing.B) {
	var r *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4(int64(i + 1))
	}
	b.ReportMetric(float64(r.RecoveredDelays["S1->S2"]), "delay-s1s2")
}

func BenchmarkTable1Sequences(b *testing.B) {
	c := benchCampaign()
	found := 0
	for i := 0; i < b.N; i++ {
		found = 0
		for _, s := range experiments.Table1(c).Sections {
			if s.Found {
				found++
			}
		}
	}
	b.ReportMetric(float64(found), "sections-found")
}

func BenchmarkFig5ChainSizes(b *testing.B) {
	c := benchCampaign()
	var r *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig5(c)
	}
	b.ReportMetric(r.Mean, "mean-size")
}

func BenchmarkFig6DelayDist(b *testing.B) {
	c := benchCampaign()
	var r *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig6(c)
	}
	b.ReportMetric(100*(r.Hist.MinuteToTen()+r.Hist.OverTenMin()), "%over-1min")
}

func BenchmarkPairDelays(b *testing.B) {
	c := benchCampaign()
	var r *experiments.PairDelaysResult
	for i := 0; i < b.N; i++ {
		r = experiments.PairDelays(c)
	}
	b.ReportMetric(100*r.NonPredictive, "%non-predictive")
}

func BenchmarkTable2Extremes(b *testing.B) {
	c := benchCampaign()
	var r *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table2(c)
	}
	b.ReportMetric(r.LongSpan.Minutes(), "long-span-min")
}

func BenchmarkFig7Propagation(b *testing.B) {
	c := benchCampaign()
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7(c)
	}
	b.ReportMetric(100*r.Breakdown.NoPropagate, "%no-propagation")
}

func BenchmarkAnalysisTime(b *testing.B) {
	c := benchCampaign()
	var r *experiments.AnalysisTimeResult
	for i := 0; i < b.N; i++ {
		r = experiments.AnalysisTime(c)
	}
	b.ReportMetric(r.BurstAnalysis.Seconds(), "burst-analysis-s")
}

func BenchmarkTable3Methods(b *testing.B) {
	c := benchCampaign()
	var r *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table3(c)
	}
	b.ReportMetric(100*r.Rows[0].Precision, "%hybrid-precision")
	b.ReportMetric(100*r.Rows[0].Recall, "%hybrid-recall")
}

func BenchmarkFig9Breakdown(b *testing.B) {
	c := benchCampaign()
	var r *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9(c)
	}
	b.ReportMetric(float64(len(r.Categories)), "categories")
}

func BenchmarkWindows(b *testing.B) {
	c := benchCampaign()
	var r *experiments.WindowsResult
	for i := 0; i < b.N; i++ {
		r = experiments.Windows(c)
	}
	b.ReportMetric(100*r.Over10s, "%over-10s")
}

func BenchmarkTable4Waste(b *testing.B) {
	c := benchCampaign()
	var r *experiments.Table4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table4(c)
	}
	b.ReportMetric(100*r.MeasuredGain, "%measured-gain")
}

func BenchmarkAppImpact(b *testing.B) {
	c := benchCampaign()
	var r *experiments.AppImpactResult
	for i := 0; i < b.N; i++ {
		r = experiments.AppImpact(c)
	}
	b.ReportMetric(r.Outcome.ReductionFactor, "loss-reduction-x")
}

// --- pipeline-stage benchmarks -------------------------------------------

var benchStart = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

// benchLog caches a one-day BG/L log for the stage benchmarks.
var benchLogCache *gen.Result

func benchLog() *gen.Result {
	if benchLogCache == nil {
		benchLogCache = gen.New(gen.BlueGeneL(), 1).Generate(benchStart, 24*time.Hour)
	}
	return benchLogCache
}

// replay runs pre-stamped records through engine over [start, end) with
// the product's replay driver. A slice source cannot fail and the
// background context never cancels, so the replay always completes.
func replay(engine *predict.Engine, recs []Record, start, end time.Time) *predict.Result {
	res, _ := pipeline.New(engine, nil, pipeline.DefaultConfig()).
		Run(context.Background(), logs.NewSliceSource(recs), start, end)
	return res
}

func BenchmarkHELOAssign(b *testing.B) {
	recs := benchLog().Records
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		org := helo.New(0)
		cp := append([]Record(nil), recs...)
		org.Assign(cp)
	}
	b.ReportMetric(float64(len(recs)), "records")
}

func BenchmarkTrainHybrid(b *testing.B) {
	log := benchLog()
	recs := append([]Record(nil), log.Records...)
	helo.New(0).Assign(recs)
	b.ReportAllocs()
	b.ResetTimer()
	var model *correlate.Model
	for i := 0; i < b.N; i++ {
		model = correlate.Train(recs, log.Start, log.End, correlate.Hybrid, correlate.DefaultConfig())
	}
	b.ReportMetric(float64(model.Stats.Pairs.Scored), "pairs-scored")
	b.ReportMetric(float64(model.Stats.Pairs.Pruned()), "pairs-pruned")
}

func BenchmarkOnlineEngine(b *testing.B) {
	log := benchLog()
	recs := append([]Record(nil), log.Records...)
	helo.New(0).Assign(recs)
	model := correlate.Train(recs, log.Start, log.End, correlate.Hybrid, correlate.DefaultConfig())
	profiles := location.Extract(recs, model.Chains, log.Start, model.Step, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := predict.NewEngine(model, profiles, predict.DefaultConfig())
		replay(engine, recs, log.Start, log.End)
	}
	b.ReportMetric(float64(len(recs)), "records")
}

// --- ablation benchmarks --------------------------------------------------

// BenchmarkAblationSeedLevel compares mining seeded by the
// cross-correlation pairs (the hybrid design) against a cold start where
// the seed filter is effectively disabled, measuring the cost the signal
// stage saves the miner.
func BenchmarkAblationSeedLevel(b *testing.B) {
	log := benchLog()
	recs := append([]Record(nil), log.Records...)
	helo.New(0).Assign(recs)
	horizon := int(log.End.Sub(log.Start) / sig.DefaultStep)
	trains := make(sig.SpikeTrains)
	for _, r := range recs {
		t := int(r.Time.Sub(log.Start) / sig.DefaultStep)
		tr := trains[r.EventID]
		if len(tr) == 0 || tr[len(tr)-1] != t {
			trains[r.EventID] = append(tr, t)
		}
	}
	for _, variant := range []struct {
		name string
		cc   sig.CrossCorrConfig
	}{
		{"seeded", sig.DefaultCrossCorrConfig()},
		{"coldstart", sig.CrossCorrConfig{MaxLag: 360, MinCount: 2, MinScore: 0.01, Tolerance: 1}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var chains int
			for i := 0; i < b.N; i++ {
				seeds := sig.AllPairs(trains, variant.cc)
				sets := gradual.Mine(trains, seeds, gradual.DefaultConfig(horizon))
				chains = len(sets)
			}
			b.ReportMetric(float64(chains), "chains")
		})
	}
}

// BenchmarkAblationReplacement measures burst robustness with and without
// the median-replacement strategy: the fraction of a long fault burst
// still flagged as outliers.
func BenchmarkAblationReplacement(b *testing.B) {
	for _, replace := range []bool{true, false} {
		name := "replace"
		if !replace {
			name = "noreplace"
		}
		b.Run(name, func(b *testing.B) {
			flagged := 0
			for i := 0; i < b.N; i++ {
				d := outlier.NewDetector(100, 3)
				d.ReplaceOutliers = replace
				for j := 0; j < 200; j++ {
					d.Observe(5)
				}
				flagged = 0
				for j := 0; j < 150; j++ {
					if d.Observe(50).Outlier {
						flagged++
					}
				}
			}
			b.ReportMetric(float64(flagged)/150*100, "%burst-flagged")
		})
	}
}

// BenchmarkAblationLocation compares precision with and without location
// prediction (the paper reports ~94% without checking locations vs 91.2%
// with).
func BenchmarkAblationLocation(b *testing.B) {
	c := benchCampaign()
	model := c.Model(correlate.Hybrid)
	profiles := c.LocationProfiles(correlate.Hybrid)
	test := c.TestRecords()
	failures := c.TestFailures()
	for _, useLoc := range []bool{true, false} {
		name := "with-location"
		if !useLoc {
			name = "without-location"
		}
		b.Run(name, func(b *testing.B) {
			var precision float64
			for i := 0; i < b.N; i++ {
				cfg := predict.DefaultConfig()
				cfg.UseLocation = useLoc
				res := replay(predict.NewEngine(model, profiles, cfg), test, c.Cut(), c.Log().End)
				mcfg := DefaultMatchConfig()
				mcfg.RequireLocation = useLoc
				precision = Evaluate(res, failures, mcfg).Precision
			}
			b.ReportMetric(100*precision, "%precision")
		})
	}
}

// BenchmarkAblationAdaptiveWindows compares the static span-proportional
// match window against the per-chain windows learned online.
func BenchmarkAblationAdaptiveWindows(b *testing.B) {
	c := benchCampaign()
	run := c.Run(correlate.Hybrid)
	failures := c.TestFailures()
	for _, adaptive := range []bool{false, true} {
		name := "static"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var precision, recall float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultMatchConfig()
				cfg.AdaptiveWindows = adaptive
				out := Evaluate(run, failures, cfg)
				precision, recall = out.Precision, out.Recall
			}
			b.ReportMetric(100*precision, "%precision")
			b.ReportMetric(100*recall, "%recall")
		})
	}
}

// BenchmarkAblationDelayTolerance sweeps the join/matching base tolerance.
func BenchmarkAblationDelayTolerance(b *testing.B) {
	log := benchLog()
	recs := append([]Record(nil), log.Records...)
	helo.New(0).Assign(recs)
	horizon := int(log.End.Sub(log.Start) / sig.DefaultStep)
	trains := make(sig.SpikeTrains)
	for _, r := range recs {
		t := int(r.Time.Sub(log.Start) / sig.DefaultStep)
		tr := trains[r.EventID]
		if len(tr) == 0 || tr[len(tr)-1] != t {
			trains[r.EventID] = append(tr, t)
		}
	}
	seeds := sig.AllPairs(trains, sig.DefaultCrossCorrConfig())
	for _, tol := range []int{0, 1, 3} {
		b.Run(map[int]string{0: "tol0", 1: "tol1", 3: "tol3"}[tol], func(b *testing.B) {
			var chains int
			for i := 0; i < b.N; i++ {
				cfg := gradual.DefaultConfig(horizon)
				cfg.DelayTolerance = tol
				chains = len(gradual.Mine(trains, seeds, cfg))
			}
			b.ReportMetric(float64(chains), "chains")
		})
	}
}

// BenchmarkAblationOutlierK sweeps the outlier threshold multiplier:
// lower K flags more outliers (more chains, more noise), higher K fewer.
func BenchmarkAblationOutlierK(b *testing.B) {
	log := benchLog()
	recs := append([]Record(nil), log.Records...)
	helo.New(0).Assign(recs)
	for _, k := range []float64{1.5, 3, 6} {
		b.Run(map[float64]string{1.5: "k1.5", 3: "k3", 6: "k6"}[k], func(b *testing.B) {
			var chains int
			for i := 0; i < b.N; i++ {
				cfg := correlate.DefaultConfig()
				cfg.OutlierK = k
				model := correlate.Train(recs, log.Start, log.End, correlate.Hybrid, cfg)
				chains = len(model.Chains)
			}
			b.ReportMetric(float64(chains), "chains")
		})
	}
}

// BenchmarkAllPairs measures the cross-correlation seeding stage alone.
func BenchmarkAllPairs(b *testing.B) {
	log := benchLog()
	recs := append([]Record(nil), log.Records...)
	helo.New(0).Assign(recs)
	trains := make(sig.SpikeTrains)
	for _, r := range recs {
		t := int(r.Time.Sub(log.Start) / sig.DefaultStep)
		tr := trains[r.EventID]
		if len(tr) == 0 || tr[len(tr)-1] != t {
			trains[r.EventID] = append(tr, t)
		}
	}
	cfg := sig.DefaultCrossCorrConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var pairs int
	var st sig.PairStats
	for i := 0; i < b.N; i++ {
		var out []sig.PairCorrelation
		out, st = sig.AllPairsStats(trains, cfg)
		pairs = len(out)
	}
	b.ReportMetric(float64(pairs), "pairs")
	b.ReportMetric(float64(st.Pruned()), "pairs-pruned")
}

// BenchmarkAblationHistoryTrim compares the online filter cost at the
// default 6-hour window against the paper's full two-month window.
func BenchmarkAblationHistoryTrim(b *testing.B) {
	for _, w := range []struct {
		name   string
		window int
	}{
		{"6h-window", 2160},
		{"2day-window", 17280},
		{"2month-window", 518400},
	} {
		b.Run(w.name, func(b *testing.B) {
			d := outlier.NewDetector(w.window, 3)
			for i := 0; i < w.window && i < 100000; i++ {
				d.Observe(float64(i % 7))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Observe(float64(i % 7))
			}
		})
	}
}
