package stats

import (
	"math"
	"sort"
)

// MannWhitneyResult holds the outcome of a two-sided Mann-Whitney
// (Wilcoxon rank-sum) test.
type MannWhitneyResult struct {
	U float64 // U statistic for the first sample
	Z float64 // normal approximation z-score (tie-corrected); 0 when exact
	P float64 // two-sided p-value
	// Exact reports whether P came from the exact small-sample null
	// distribution rather than the normal approximation.
	Exact bool
}

// exactLimit is the largest per-sample size for which the exact null
// distribution is enumerated (only applicable to tie-free data).
const exactLimit = 10

// MannWhitney performs a two-sided Mann-Whitney U test of whether samples
// xs and ys come from the same distribution, using the normal approximation
// with tie correction and continuity correction. The paper uses this test
// (its reference [22]) to decide when a mined correlation is statistically
// significant. With an empty sample it reports P = 1 (no evidence).
func MannWhitney(xs, ys []float64) MannWhitneyResult {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 {
		return MannWhitneyResult{P: 1}
	}
	type obs struct {
		v     float64
		first bool
	}
	all := make([]obs, 0, n1+n2)
	for _, x := range xs {
		all = append(all, obs{x, true})
	}
	for _, y := range ys {
		all = append(all, obs{y, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign mid-ranks, tracking tie groups for the variance correction.
	ranks := make([]float64, len(all))
	tieTerm := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		r := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = r
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	r1 := 0.0
	for i, o := range all {
		if o.first {
			r1 += ranks[i]
		}
	}
	return fromRanks(n1, n2, r1, tieTerm)
}

// MannWhitneyIndicators is MannWhitney for two samples of 0/1 indicators,
// given by their sizes and how many of each are 1. Two tie groups are all
// such data has, so the ranks follow from the four counts: nothing is
// built or sorted, and the result equals MannWhitney on the expanded
// vectors bit for bit (every rank sum is a multiple of 1/2, hence exact).
// It is what the miner's significance test runs per candidate.
func MannWhitneyIndicators(n1, ones1, n2, ones2 int) MannWhitneyResult {
	if n1 == 0 || n2 == 0 {
		return MannWhitneyResult{P: 1}
	}
	zeros, n := (n1-ones1)+(n2-ones2), n1+n2
	tz, to := float64(zeros), float64(n-zeros)
	tieTerm := (tz*tz*tz - tz) + (to*to*to - to)
	// Mid-ranks: the zeros hold ranks 1..zeros, the ones zeros+1..n.
	r1 := float64(n1-ones1)*(float64(zeros+1)/2) + float64(ones1)*(float64(zeros+n+1)/2)
	return fromRanks(n1, n2, r1, tieTerm)
}

// fromRanks finishes the test from the first sample's rank sum and the
// tie-correction term.
func fromRanks(n1, n2 int, r1, tieTerm float64) MannWhitneyResult {
	fn1, fn2 := float64(n1), float64(n2)
	u1 := r1 - fn1*(fn1+1)/2

	// Small tie-free samples get the exact null distribution — the
	// normal approximation is unreliable below ~10 observations per
	// sample, exactly where mined-chain supports live.
	if tieTerm == 0 && n1 <= exactLimit && n2 <= exactLimit {
		return MannWhitneyResult{U: u1, P: exactP(n1, n2, u1), Exact: true}
	}
	mu := fn1 * fn2 / 2
	n := fn1 + fn2
	sigma2 := fn1 * fn2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		// All observations tied: no evidence of difference.
		return MannWhitneyResult{U: u1, P: 1}
	}
	sigma := math.Sqrt(sigma2)
	// Continuity correction toward the mean.
	diff := u1 - mu
	var z float64
	switch {
	case diff > 0.5:
		z = (diff - 0.5) / sigma
	case diff < -0.5:
		z = (diff + 0.5) / sigma
	default:
		z = 0
	}
	p := 2 * normSurvival(math.Abs(z))
	if p > 1 {
		p = 1
	}
	return MannWhitneyResult{U: u1, Z: z, P: p}
}

// normSurvival returns P(Z > z) for a standard normal variable.
func normSurvival(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// exactP returns the two-sided exact p-value for U = u with sample sizes
// n1, n2 and no ties, from the enumerated null distribution. counts[u]
// is the number of arrangements with statistic u, built by the standard
// recurrence f(n1, n2, u) = f(n1-1, n2, u-n2) + f(n1, n2-1, u).
func exactP(n1, n2 int, u float64) float64 {
	maxU := n1 * n2
	// f[i][j][k] = arrangements of i firsts and j seconds with U = k.
	// Rolled over i to keep memory flat.
	counts := make([][]float64, n2+1)
	for j := range counts {
		counts[j] = make([]float64, maxU+1)
		counts[j][0] = 1 // zero firsts: only U = 0
	}
	for i := 1; i <= n1; i++ {
		next := make([][]float64, n2+1)
		for j := 0; j <= n2; j++ {
			next[j] = make([]float64, maxU+1)
			for k := 0; k <= i*j; k++ {
				// Last element is a first (contributes j to U)...
				if k-j >= 0 {
					next[j][k] += counts[j][k-j]
				}
				// ...or a second.
				if j > 0 {
					next[j][k] += next[j-1][k]
				}
			}
		}
		counts = next
	}
	dist := counts[n2]
	total := 0.0
	for _, c := range dist {
		total += c
	}
	ui := int(u + 0.5)
	if ui > maxU {
		ui = maxU
	}
	lower, upper := 0.0, 0.0
	for k := 0; k <= ui; k++ {
		lower += dist[k]
	}
	for k := ui; k <= maxU; k++ {
		upper += dist[k]
	}
	p := 2 * math.Min(lower, upper) / total
	if p > 1 {
		p = 1
	}
	return p
}

// Significant reports whether the test rejects equality at level alpha.
func (r MannWhitneyResult) Significant(alpha float64) bool { return r.P < alpha }
