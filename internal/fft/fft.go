// Package fft implements the radix-2 fast Fourier transform and, on top of
// it, the autocorrelation the signal module uses to recognise periodic
// event types.
package fft

import (
	"math"
	"math/cmplx"
)

// nextPow2 returns the smallest power of two >= n (and at least 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// transform computes the in-place iterative radix-2 FFT of x. len(x) must
// be a power of two; Autocorrelation's buffer is one by construction.
func transform(x []complex128) {
	n := len(x)
	if n == 1 {
		return
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// inverse computes the in-place inverse FFT of x (power-of-two length).
func inverse(x []complex128) {
	n := len(x)
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	transform(x)
	inv := complex(1/float64(n), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * inv
	}
}

// Autocorrelation returns the biased autocorrelation of xs (mean-removed,
// normalised so lag 0 equals 1) for lags 0..maxLag, computed via FFT in
// O(n log n). A zero-variance series yields an all-zero result beyond
// lag 0.
func Autocorrelation(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if n == 0 || maxLag < 0 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	m := 0.0
	for _, v := range xs {
		m += v
	}
	m /= float64(n)
	buf := make([]complex128, nextPow2(2*n)) // zero-pad to avoid circular wrap
	for i, v := range xs {
		buf[i] = complex(v, 0) - complex(m, 0)
	}
	transform(buf)
	for i := range buf {
		re, im := real(buf[i]), imag(buf[i])
		buf[i] = complex(re*re+im*im, 0)
	}
	inverse(buf)
	out := make([]float64, maxLag+1)
	c0 := real(buf[0])
	if c0 <= 0 {
		out[0] = 1
		return out
	}
	for lag := 0; lag <= maxLag; lag++ {
		out[lag] = real(buf[lag]) / c0
	}
	return out
}
