// Package stats provides the small statistical toolkit the paper's
// measurements and detection engine rely on: mean/stddev/95% confidence
// intervals for attack measurements and Pearson correlation for the
// message-count-distribution feature Λ.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator), or 0
// for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// CI95 returns the half-width of the 95% confidence interval for the mean of
// xs using the normal approximation (z = 1.96), which matches the paper's
// "average values with 95% confidence level" over 100 samples.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Min returns the smallest value of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation, or 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ErrDimensionMismatch is returned when paired samples have unequal lengths.
var ErrDimensionMismatch = fmt.Errorf("sample vectors have different lengths")

// PearsonCorrelation returns the correlation coefficient ρ between the two
// equal-length vectors — the paper's distribution-similarity measure Λ. For
// constant vectors (zero variance) it returns 0.
func PearsonCorrelation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrDimensionMismatch
	}
	if len(xs) == 0 {
		return 0, nil
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Normalize returns xs scaled so its entries sum to 1 — the "normalized
// count of messages" of Fig. 10. A zero-sum vector is returned unchanged.
func Normalize(xs []float64) []float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	out := make([]float64, len(xs))
	if sum == 0 {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / sum
	}
	return out
}

// Summary aggregates a measured sample set.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
	Min    float64
	Max    float64
}

// Summarize computes the Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		CI95:   CI95(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f ±%.3f (95%% CI) sd=%.3f min=%.3f max=%.3f",
		s.N, s.Mean, s.CI95, s.StdDev, s.Min, s.Max)
}
