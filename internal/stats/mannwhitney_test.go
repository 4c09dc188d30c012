package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMannWhitneyIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	r := MannWhitney(xs, xs)
	if r.P < 0.9 {
		t.Errorf("identical samples: P = %v, want ~1", r.P)
	}
	if r.Significant(0.05) {
		t.Error("identical samples should not be significant")
	}
}

func TestMannWhitneySeparatedSamples(t *testing.T) {
	xs := make([]float64, 30)
	ys := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i) + 100
	}
	r := MannWhitney(xs, ys)
	if !r.Significant(0.001) {
		t.Errorf("fully separated samples: P = %v, want << 0.001", r.P)
	}
	if r.U != 0 {
		t.Errorf("U = %v, want 0 for fully dominated sample", r.U)
	}
}

func TestMannWhitneyEmpty(t *testing.T) {
	r := MannWhitney(nil, []float64{1, 2})
	if r.P != 1 {
		t.Errorf("empty sample: P = %v, want 1", r.P)
	}
}

func TestMannWhitneyAllTied(t *testing.T) {
	xs := []float64{5, 5, 5}
	ys := []float64{5, 5, 5, 5}
	r := MannWhitney(xs, ys)
	if r.P != 1 {
		t.Errorf("all tied: P = %v, want 1", r.P)
	}
}

func TestMannWhitneySymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 10+rng.Intn(20))
		ys := make([]float64, 10+rng.Intn(20))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		for i := range ys {
			ys[i] = rng.NormFloat64() + 0.5
		}
		a := MannWhitney(xs, ys)
		b := MannWhitney(ys, xs)
		if !almostEq(a.P, b.P, 1e-9) {
			t.Fatalf("P not symmetric: %v vs %v", a.P, b.P)
		}
		// U1 + U2 = n1*n2.
		if !almostEq(a.U+b.U, float64(len(xs)*len(ys)), 1e-9) {
			t.Fatalf("U1+U2 = %v, want %v", a.U+b.U, len(xs)*len(ys))
		}
	}
}

func TestMannWhitneyExactKnownValue(t *testing.T) {
	// Fully separated samples of size 4 vs 4, no ties: U = 0 and the
	// exact two-sided p is 2 * 1/C(8,4) = 2/70.
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	r := MannWhitney(xs, ys)
	if !r.Exact {
		t.Fatal("small tie-free samples should use the exact test")
	}
	if r.U != 0 {
		t.Errorf("U = %v, want 0", r.U)
	}
	want := 2.0 / 70.0
	if !almostEq(r.P, want, 1e-12) {
		t.Errorf("P = %v, want %v", r.P, want)
	}
}

func TestMannWhitneyExactSymmetricNull(t *testing.T) {
	// Interleaved samples: U near its mean, p near 1.
	xs := []float64{1, 3, 5, 7}
	ys := []float64{2, 4, 6, 8}
	r := MannWhitney(xs, ys)
	if !r.Exact {
		t.Fatal("expected exact path")
	}
	if r.P < 0.5 {
		t.Errorf("interleaved samples P = %v, want large", r.P)
	}
}

func TestMannWhitneyExactMatchesApproxAtBoundary(t *testing.T) {
	// At n = 10 vs 10 the exact and normal-approximation p-values should
	// agree within a few percent for a moderate shift.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		xs := make([]float64, 10)
		ys := make([]float64, 11) // 11 forces the approximation path
		exact := make([]float64, 10)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			exact[i] = xs[i]
		}
		for i := range ys {
			ys[i] = rng.NormFloat64() + 1
		}
		re := MannWhitney(xs, ys[:10])
		ra := MannWhitney(xs, ys)
		if !re.Exact || ra.Exact {
			t.Fatal("path selection wrong")
		}
		// Not the same data, so only sanity-check both are probabilities.
		if re.P < 0 || re.P > 1 || ra.P < 0 || ra.P > 1 {
			t.Fatalf("p out of range: %v, %v", re.P, ra.P)
		}
	}
}

func TestMannWhitneyTiesUseApproximation(t *testing.T) {
	xs := []float64{1, 2, 2, 4}
	ys := []float64{2, 5, 6, 7}
	if r := MannWhitney(xs, ys); r.Exact {
		t.Error("tied data must use the tie-corrected approximation")
	}
}

func TestMannWhitneyExactFalsePositiveRate(t *testing.T) {
	// Under the null with n=8 vs 8 (exact path), rejections at alpha=0.05
	// must not exceed 5% materially (the exact test is conservative).
	rng := rand.New(rand.NewSource(20))
	trials, rejected := 2000, 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, 8)
		ys := make([]float64, 8)
		for j := range xs {
			xs[j] = rng.NormFloat64()
			ys[j] = rng.NormFloat64()
		}
		if MannWhitney(xs, ys).Significant(0.05) {
			rejected++
		}
	}
	if rate := float64(rejected) / float64(trials); rate > 0.06 {
		t.Errorf("exact null rejection rate = %v, want <= 0.05 (conservative)", rate)
	}
}

func TestMannWhitneyFalsePositiveRate(t *testing.T) {
	// Under the null hypothesis the rejection rate at alpha=0.05 should be
	// close to 5%.
	rng := rand.New(rand.NewSource(6))
	trials, rejected := 2000, 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, 25)
		ys := make([]float64, 25)
		for j := range xs {
			xs[j] = rng.NormFloat64()
			ys[j] = rng.NormFloat64()
		}
		if MannWhitney(xs, ys).Significant(0.05) {
			rejected++
		}
	}
	rate := float64(rejected) / float64(trials)
	if rate > 0.08 || rate < 0.02 {
		t.Errorf("null rejection rate = %v, want ~0.05", rate)
	}
}

func TestMannWhitneyPower(t *testing.T) {
	// A strong shift must be detected nearly always.
	rng := rand.New(rand.NewSource(8))
	trials, rejected := 200, 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, 30)
		ys := make([]float64, 30)
		for j := range xs {
			xs[j] = rng.NormFloat64()
			ys[j] = rng.NormFloat64() + 2
		}
		if MannWhitney(xs, ys).Significant(0.05) {
			rejected++
		}
	}
	if rate := float64(rejected) / float64(trials); rate < 0.95 {
		t.Errorf("power = %v, want > 0.95", rate)
	}
}

// The indicator form must be the general test on 0/1 data, to the bit:
// every size from empty through the exact small-sample limit and the
// miner's probe counts, every split of ones, shuffled input order.
func TestMannWhitneyIndicatorsMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	expand := func(n, ones int) []float64 {
		xs := make([]float64, n)
		for i := 0; i < ones; i++ {
			xs[i] = 1
		}
		rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	sizes := []int{0, 1, 2, 3, 9, 10, 11, 40, 173, 400, 2161}
	for _, n1 := range sizes {
		for _, n2 := range sizes {
			for trial := 0; trial < 6; trial++ {
				ones1, ones2 := 0, 0
				switch trial {
				case 0: // all zeros
				case 1:
					ones1, ones2 = n1, n2
				case 2:
					ones1 = n1
				default:
					ones1, ones2 = rng.Intn(n1+1), rng.Intn(n2+1)
				}
				want := MannWhitney(expand(n1, ones1), expand(n2, ones2))
				got := MannWhitneyIndicators(n1, ones1, n2, ones2)
				if math.Float64bits(got.U) != math.Float64bits(want.U) ||
					math.Float64bits(got.Z) != math.Float64bits(want.Z) ||
					math.Float64bits(got.P) != math.Float64bits(want.P) || got.Exact != want.Exact {
					t.Fatalf("n1=%d ones1=%d n2=%d ones2=%d: indicators %+v, general %+v", n1, ones1, n2, ones2, got, want)
				}
			}
		}
	}
}
