// Package fft implements the radix-2 fast Fourier transform and, on top of
// it, the autocorrelation the signal module uses to recognise periodic
// event types.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// GrowPow2 returns a zeroed complex buffer whose length is the smallest
// power of two >= n, reusing buf's capacity when it suffices. Callers that
// keep the returned slice as scratch state amortize the allocation away;
// the length is a power of two by construction, so the buffer is always
// valid input for MustTransform/MustInverse.
func GrowPow2(buf []complex128, n int) []complex128 {
	size := NextPow2(n)
	if cap(buf) >= size {
		buf = buf[:size]
		for i := range buf {
			buf[i] = 0
		}
		return buf
	}
	return make([]complex128, size)
}

// PackReal packs the real series xs into the real parts of a zero-padded
// power-of-two complex buffer of length NextPow2(max(len(xs), minSize)),
// reusing buf's capacity when possible. minSize lets correlation callers
// reserve extra zero padding so the circular convolution never wraps.
func PackReal(buf []complex128, xs []float64, minSize int) []complex128 {
	if minSize < len(xs) {
		minSize = len(xs)
	}
	buf = GrowPow2(buf, minSize)
	for i, v := range xs {
		buf[i] = complex(v, 0)
	}
	return buf
}

// MustTransform is Transform for buffers whose length is a power of two by
// construction (GrowPow2/PackReal output). It panics on any other length —
// a programming error, not an input condition — so call sites carry no
// error path.
func MustTransform(x []complex128) {
	if err := Transform(x); err != nil {
		panic(err)
	}
}

// MustInverse is Inverse under the same power-of-two-by-construction
// contract as MustTransform.
func MustInverse(x []complex128) {
	if err := Inverse(x); err != nil {
		panic(err)
	}
}

// Transform computes the in-place iterative radix-2 FFT of x. It returns an
// error unless len(x) is a power of two.
func Transform(x []complex128) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	if n == 1 {
		return nil
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
	return nil
}

// Inverse computes the in-place inverse FFT of x (power-of-two length).
func Inverse(x []complex128) error {
	n := len(x)
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := Transform(x); err != nil {
		return err
	}
	inv := complex(1/float64(n), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * inv
	}
	return nil
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
	buf := PackReal(nil, xs, 2*n) // zero-pad to avoid circular wrap
	for i := range xs {
		buf[i] -= complex(m, 0)
	}
	MustTransform(buf)
	for i := range buf {
		re, im := real(buf[i]), imag(buf[i])
		buf[i] = complex(re*re+im*im, 0)
	}
	MustInverse(buf)
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
