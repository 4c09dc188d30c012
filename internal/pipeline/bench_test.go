package pipeline

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/correlate"
	"github.com/elsa-hpc/elsa/internal/location"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// The benchmarks share one trained BG/L-profile model: training is
// seconds of work and must not pollute per-op timings.
var (
	benchOnce     sync.Once
	benchModel    *correlate.Model
	benchProfiles map[string]*location.Profile
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchModel, benchProfiles, _, _, _ = trained(b, 501)
	})
}

// syntheticStream emits stamped records at a constant rate over dur,
// cycling event ids and node locations — the paper's §VI.A traffic
// profiles (5 msg/s sustained, ~100 msg/s bursts) without generator
// noise, so the benchmark isolates pipeline cost.
func syntheticStream(start time.Time, rate int, dur time.Duration, events int) []logs.Record {
	locs := []topology.Location{
		topology.MustParse("R00-M0-N0-C:J02-U01"),
		topology.MustParse("R01-M1-N2-C:J05-U11"),
		topology.MustParse("R02-M0-N3-C:J00-U01"),
	}
	n := int(dur.Seconds()) * rate
	gap := time.Second / time.Duration(rate)
	out := make([]logs.Record, n)
	for i := range out {
		out[i] = logs.Record{
			Time:     start.Add(time.Duration(i) * gap),
			Severity: logs.Info,
			Location: locs[i%len(locs)],
			EventID:  i % events,
		}
	}
	return out
}

// BenchmarkPipelineThroughput measures sustained records/sec through a
// batch replay (Run: a bounded Session, template assignment one chunk
// ahead) at the paper's average and burst message rates, with allocation
// counts — the baseline later perf PRs diff against.
func BenchmarkPipelineThroughput(b *testing.B) {
	benchSetup(b)
	for _, bc := range []struct {
		name string
		rate int
	}{
		{"avg5msgs", 5},
		{"burst100msgs", 100},
	} {
		b.Run(bc.name, func(b *testing.B) {
			start := t0.Add(30 * 24 * time.Hour)
			dur := 10 * time.Minute
			events := len(benchModel.Profiles)
			if events == 0 {
				events = 200
			}
			recs := syntheticStream(start, bc.rate, dur, events)
			end := start.Add(dur)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := predict.NewEngine(benchModel, benchProfiles, predict.DefaultConfig())
				p := New(eng, nil, DefaultConfig())
				res, err := p.Run(context.Background(), logs.NewSliceSource(recs), start, end)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Messages != len(recs) {
					b.Fatalf("processed %d of %d records", res.Stats.Messages, len(recs))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(recs)*b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkMonitorFeed measures the synchronous per-record ingest path
// (the live monitor's Feed) at burst rate.
func BenchmarkMonitorFeed(b *testing.B) {
	benchSetup(b)
	start := t0.Add(30 * 24 * time.Hour)
	recs := syntheticStream(start, 100, 10*time.Minute, max(len(benchModel.Profiles), 1))
	b.ReportAllocs()
	b.ResetTimer()
	fed := 0
	for i := 0; i < b.N; i++ {
		eng := predict.NewEngine(benchModel, benchProfiles, predict.DefaultConfig())
		s := New(eng, nil, DefaultConfig()).NewSession(start)
		for _, r := range recs {
			s.Feed(r)
		}
		s.Close()
		fed += len(recs)
	}
	b.StopTimer()
	b.ReportMetric(float64(fed)/b.Elapsed().Seconds(), "records/s")
}
