package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
	}
	for _, c := range cases {
		if got := nextPow2(c.in); got != c.want {
			t.Errorf("nextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestMustTransformRoundTrip: a real series zero-padded to a power of two,
// the only buffer shape Autocorrelation builds, survives transform then
// inverse.
func TestMustTransformRoundTrip(t *testing.T) {
	xs := []float64{1, -2, 3, 0.5, -7}
	buf := make([]complex128, nextPow2(len(xs)))
	for i, v := range xs {
		buf[i] = complex(v, 0)
	}
	transform(buf)
	inverse(buf)
	for i, v := range xs {
		if math.Abs(real(buf[i])-v) > 1e-9 || math.Abs(imag(buf[i])) > 1e-9 {
			t.Fatalf("round trip bin %d = %v, want %v", i, buf[i], v)
		}
	}
}

func TestTransformKnownValues(t *testing.T) {
	// FFT of an impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	transform(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}
	// FFT of a constant is an impulse at DC.
	y := []complex128{1, 1, 1, 1}
	transform(y)
	if cmplx.Abs(y[0]-4) > 1e-12 {
		t.Errorf("DC bin = %v, want 4", y[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(y[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, y[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 1 << (1 + r.Intn(9))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			orig[i] = x[i]
		}
		transform(x)
		inverse(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 256
	x := make([]complex128, n)
	timeEnergy := 0.0
	for i := range x {
		v := rng.NormFloat64()
		x[i] = complex(v, 0)
		timeEnergy += v * v
	}
	transform(x)
	freqEnergy := 0.0
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Errorf("Parseval violated: time %v vs freq %v", timeEnergy, freqEnergy)
	}
}

func TestAutocorrelationPeriodic(t *testing.T) {
	n := 600
	xs := make([]float64, n)
	for i := range xs {
		if i%20 == 0 {
			xs[i] = 1
		}
	}
	ac := Autocorrelation(xs, 100)
	if math.Abs(ac[0]-1) > 1e-9 {
		t.Fatalf("lag0 = %v, want 1", ac[0])
	}
	if ac[20] < 0.8 {
		t.Errorf("ac at true period = %v, want near 1", ac[20])
	}
	if ac[10] > 0.3 {
		t.Errorf("ac at half period = %v, want near 0", ac[10])
	}
}

func TestAutocorrelationConstant(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5}
	ac := Autocorrelation(xs, 3)
	if ac[0] != 1 {
		t.Errorf("lag0 = %v, want 1 even for zero variance", ac[0])
	}
	for lag := 1; lag <= 3; lag++ {
		if ac[lag] != 0 {
			t.Errorf("constant series lag %d = %v, want 0", lag, ac[lag])
		}
	}
}

func TestAutocorrelationClampsLag(t *testing.T) {
	xs := []float64{1, 2, 3}
	ac := Autocorrelation(xs, 10)
	if len(ac) != 3 {
		t.Errorf("len = %d, want clamped to 3", len(ac))
	}
	if Autocorrelation(nil, 5) != nil {
		t.Error("empty input should yield nil")
	}
	if Autocorrelation(xs, -1) != nil {
		t.Error("negative maxLag should yield nil")
	}
}

func BenchmarkTransform4096(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	buf := make([]complex128, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		transform(buf)
	}
}
