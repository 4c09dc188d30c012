package sig

import "math/bits"

// kernelKind names a way of building the cross-correlation histogram.
// The two kernels are bit-identical on duplicate-free sorted trains (the
// SpikeTrains contract); they differ only in cost shape, so the
// dispatcher picks per pair by a deterministic estimate of each kernel's
// work. kernelAuto is that dispatch and the only value non-test code
// passes; the in-package equivalence tests force the other two.
type kernelKind int

const (
	kernelAuto kernelKind = iota
	// kernelSliding is the two-pointer sliding-window sweep: O(mass)
	// increments, ideal for the sparse outlier-filtered trains.
	kernelSliding
	// kernelBitpack packs both trains into bitsets over their shared span
	// and counts each lag with word-parallel AND+popcount: 64 positions
	// per operation, O((MaxLag+1)·span/64) regardless of density.
	kernelBitpack
)

// Deterministic per-unit work weights for the dispatch estimate,
// calibrated with BenchmarkKernels so each cost approximates nanoseconds:
// one sliding-sweep histogram increment ~1 ns, one bit-packed
// AND+popcount word-op ~2 ns.
const (
	slidingUnitCost = 1
	bitpackUnitCost = 2
)

// chooseKernel estimates each kernel's work for the pair (a, b) and
// returns the cheaper. bn is the count of b spikes inside the relevant
// window [a[0], a[len-1]+maxLag], span that window's width.
func chooseKernel(an, bn, span, maxLag int) kernelKind {
	// Expected co-occurrence mass under a uniform spread of b's spikes:
	// each a spike sees bn*(maxLag+1)/span of them.
	massEst := an * (bn*(maxLag+1)/span + 1)
	slidingCost := slidingUnitCost * (an + bn + massEst)

	words := span>>6 + 1
	bitCost := bitpackUnitCost * (maxLag + 1) * words

	if bitCost < slidingCost {
		return kernelBitpack
	}
	return kernelSliding
}

// clipLo returns b without the prefix of spikes before base; they sit
// strictly before every a spike and can never co-occur at a non-negative
// delay.
//
//elsa:hotpath
func clipLo(b []int, base int) []int {
	lo := 0
	for lo < len(b) && b[lo] < base {
		lo++
	}
	return b[lo:]
}

// clipHi returns b without the suffix of spikes after top = last a spike
// + maxLag; they are beyond every tolerated delay.
//
//elsa:hotpath
func clipHi(b []int, top int) []int {
	hi := len(b)
	for hi > 0 && b[hi-1] > top {
		hi--
	}
	return b[:hi]
}

// strictlyIncreasing reports whether xs is duplicate-free sorted — the
// SpikeTrains contract. The bit-packed kernel collapses duplicate spikes
// where the sliding sweep counts them, so off-contract input is routed to
// the sliding sweep instead of silently diverging.
//
//elsa:hotpath
func strictlyIncreasing(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

// buildHist fills hist[d] with the number of (t_a, t_b) spike pairs at
// delay d = t_b - t_a for d in [0, maxLag], dispatching between the two
// kernels, and records the choice in s.lastKernel. hist arrives zeroed.
//
//elsa:hotpath
func (s *scratch) buildHist(a, b []int, maxLag int, force kernelKind, hist []int) {
	base := a[0]
	top := a[len(a)-1] + maxLag
	bw := clipHi(clipLo(b, base), top)
	s.lastKernel = kernelSliding
	if len(bw) == 0 {
		return
	}
	span := top - base + 1

	kind := force
	if kind == kernelAuto {
		kind = chooseKernel(len(a), len(bw), span, maxLag)
	}
	if kind == kernelBitpack && strictlyIncreasing(a) && strictlyIncreasing(bw) {
		s.lastKernel = kernelBitpack
		s.bitpackHist(a, bw, base, span, maxLag, hist)
		return
	}
	s.slidingHist(a, bw, maxLag, hist)
}

// slidingHist is the original two-pointer sweep. Both trains are sorted,
// so the start of each window [t, t+maxLag] advances monotonically: one
// shared pointer replaces a binary search per spike, leaving only one
// increment per actual co-occurrence.
//
//elsa:hotpath
func (s *scratch) slidingHist(a, b []int, maxLag int, hist []int) {
	lo := 0
	for _, t := range a {
		for lo < len(b) && b[lo] < t {
			lo++
		}
		for j := lo; j < len(b); j++ {
			d := b[j] - t
			if d > maxLag {
				break
			}
			hist[d]++
		}
	}
}

// bitpackHist packs both trains into span-relative bitsets and computes
// each lag's count with word-parallel AND+popcount: bit p of wordsA marks
// a spike at base+p, so hist[d] is the number of positions where wordsA
// and wordsB-shifted-right-by-d are both set — 64 lag positions per
// machine word. wordsB carries maxLag/64+1 zero padding words so the
// shifted reads never branch on the tail.
//
//elsa:hotpath
func (s *scratch) bitpackHist(a, bw []int, base, span, maxLag int, hist []int) {
	words := span>>6 + 1
	wa, wb := s.growBits(words, words+(maxLag>>6)+1)
	for _, t := range a {
		p := t - base
		wa[p>>6] |= 1 << uint(p&63)
	}
	for _, t := range bw {
		p := t - base
		wb[p>>6] |= 1 << uint(p&63)
	}
	for d := 0; d <= maxLag; d++ {
		q, r := d>>6, uint(d&63)
		c := 0
		for w := 0; w < words; w++ {
			// Go defines x<<64 == 0, so the r == 0 case needs no branch.
			m := wa[w] & (wb[w+q]>>r | wb[w+q+1]<<(64-r))
			c += bits.OnesCount64(m)
		}
		hist[d] = c
	}
}
