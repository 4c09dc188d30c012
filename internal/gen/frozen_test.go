package gen_test

import (
	"slices"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/bench"
	"github.com/elsa-hpc/elsa/internal/gen"
)

// TestGenerateMatchesFrozenReference holds Generate to the frozen
// pre-compilation generator (ref_test.go) record for record and failure
// for failure, on both paper profiles and the benchmark's bgl200 profile
// at several seeds: compiling the templates must not move one rng draw.
func TestGenerateMatchesFrozenReference(t *testing.T) {
	start := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	for _, p := range []gen.Profile{gen.BlueGeneL(), gen.Mercury(), bench.ScaledBGL(200)} {
		for _, seed := range []int64{1, 42, 1000004} {
			got := gen.New(p, seed).Generate(start, 24*time.Hour)
			want := gen.RefGenerate(p, seed, start, 24*time.Hour)
			if len(got.Records) != len(want.Records) {
				t.Fatalf("%s seed %d: %d records, reference %d", p.Name, seed, len(got.Records), len(want.Records))
			}
			for i := range got.Records {
				if got.Records[i] != want.Records[i] {
					t.Fatalf("%s seed %d: record %d = %+v, reference %+v",
						p.Name, seed, i, got.Records[i], want.Records[i])
				}
			}
			if len(got.Failures) != len(want.Failures) {
				t.Fatalf("%s seed %d: %d failures, reference %d", p.Name, seed, len(got.Failures), len(want.Failures))
			}
			for i, f := range got.Failures {
				w := want.Failures[i]
				if f.Time != w.Time || f.Archetype != w.Archetype || f.Category != w.Category ||
					f.Heralded != w.Heralded || f.Origin != w.Origin || !slices.Equal(f.Locations, w.Locations) {
					t.Fatalf("%s seed %d: failure %d = %+v, reference %+v", p.Name, seed, i, f, w)
				}
			}
		}
	}
}
