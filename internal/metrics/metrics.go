// Package metrics implements the paper's evaluation metrics (§6.1) — MAE,
// MAPE and MARE — plus the statistical summaries its figures are built
// from: box-plot statistics (Figure 9), Gaussian kernel density estimates
// of error distributions (Figure 11), and scatter samples (Figures 12–13).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// MAE is the Mean Absolute Error (1/N) Σ |yᵢ − ŷᵢ| in the same unit as y.
// Like MAPE and MARE it returns NaN on empty input — the mean of nothing is
// undefined, and callers aggregating windows of live traffic (for example
// internal/quality) must be able to ask about an empty window without
// crashing.
func MAE(actual, predicted []float64) float64 {
	mustSameLen(actual, predicted)
	if len(actual) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range actual {
		s += math.Abs(actual[i] - predicted[i])
	}
	return s / float64(len(actual))
}

// MAPE is the Mean Absolute Percent Error (1/N) Σ |yᵢ − ŷᵢ| / yᵢ, returned
// as a fraction (multiply by 100 for percent). Samples with a zero actual
// value — a degenerate simulated trip — are skipped rather than killing
// the run; MAPE returns NaN when every sample is skipped (which includes
// empty input). Use MAPESkip to also learn how many samples were dropped.
func MAPE(actual, predicted []float64) float64 {
	v, _ := MAPESkip(actual, predicted)
	return v
}

// MAPESkip is MAPE plus the count of zero-actual samples it skipped.
func MAPESkip(actual, predicted []float64) (mape float64, skipped int) {
	mustSameLen(actual, predicted)
	var s float64
	for i := range actual {
		if actual[i] == 0 {
			skipped++
			continue
		}
		s += math.Abs(actual[i]-predicted[i]) / math.Abs(actual[i])
	}
	n := len(actual) - skipped
	if n == 0 {
		return math.NaN(), skipped
	}
	return s / float64(n), skipped
}

// MARE is the Mean Absolute Relative Error Σ|yᵢ − ŷᵢ| / Σ|yᵢ|, as a
// fraction. It returns NaN when all actual values are zero (the ratio is
// undefined, and an empty input is a special case of it) instead of
// panicking.
func MARE(actual, predicted []float64) float64 {
	mustSameLen(actual, predicted)
	var num, den float64
	for i := range actual {
		num += math.Abs(actual[i] - predicted[i])
		den += math.Abs(actual[i])
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// PerSampleAPE returns |yᵢ − ŷᵢ|/yᵢ per sample (the values behind the
// distribution plots of Figure 11 and the worst-case study of Figure 13).
func PerSampleAPE(actual, predicted []float64) []float64 {
	mustSameLen(actual, predicted)
	out := make([]float64, len(actual))
	for i := range actual {
		out[i] = math.Abs(actual[i]-predicted[i]) / math.Abs(actual[i])
	}
	return out
}

// mustSameLen panics on mismatched slice lengths — always a programmer
// error. Empty input is deliberately NOT a panic: MAE/MAPE/MARE answer NaN
// for it, so online aggregators can query windows that happened to receive
// no samples.
func mustSameLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: length mismatch %d vs %d", len(a), len(b)))
	}
}

// BoxStats are the five-number summary + mean used for the Figure 9
// box plots of per-batch MAPE.
type BoxStats struct {
	Min, Q1, Median, Q3, Max, Mean float64
}

// Box computes box-plot statistics of xs.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		panic("metrics: Box on empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := float64(p * float64(len(s)-1))
		lo := int(pos)
		hi := lo + 1
		if hi >= len(s) {
			return s[len(s)-1]
		}
		f := pos - float64(lo)
		return float64(s[lo]*(1-f)) + float64(s[hi]*f)
	}
	var mean float64
	for _, v := range s {
		mean += v
	}
	return BoxStats{
		Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: s[len(s)-1],
		Mean: mean / float64(len(s)),
	}
}

// KDE evaluates a Gaussian kernel density estimate of xs on a uniform grid
// of n points spanning [lo, hi], using Silverman's rule of thumb for the
// bandwidth. It returns the grid and the densities (Figure 11's PDF
// curves).
func KDE(xs []float64, lo, hi float64, n int) (grid, density []float64) {
	if len(xs) == 0 || n <= 1 || hi <= lo {
		panic(fmt.Sprintf("metrics: invalid KDE input (n=%d, range [%v,%v], %d samples)", n, lo, hi, len(xs)))
	}
	mean := 0.0
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	var variance float64
	for _, v := range xs {
		variance += float64((v - mean) * (v - mean))
	}
	variance /= float64(len(xs))
	std := math.Sqrt(variance)
	if std == 0 {
		std = 1e-6
	}
	h := 1.06 * std * math.Pow(float64(len(xs)), -0.2)

	grid = make([]float64, n)
	density = make([]float64, n)
	norm := 1 / (float64(len(xs)) * h * math.Sqrt(2*math.Pi))
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		grid[i] = x
		var d float64
		for _, v := range xs {
			z := (x - v) / h
			d += math.Exp(-0.5 * z * z)
		}
		density[i] = d * norm
	}
	return grid, density
}

// Moments returns the mean and variance of xs.
func Moments(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		panic("metrics: Moments on empty slice")
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	for _, v := range xs {
		variance += float64((v - mean) * (v - mean))
	}
	variance /= float64(len(xs))
	return mean, variance
}

// WorstK returns the indices of the k largest values in xs, descending
// (Figure 13 selects each method's 50 worst-MAPE cases).
func WorstK(xs []float64, k int) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
