package main

import (
	"math"
	"sort"

	"repro/internal/metrics"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It returns NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOr0 is median with 0 for an empty sample.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// tailPercentile returns the highest percentile p (in whole percent, 50 to
// 99) that still has at least minBeyond samples above its rank, with its
// value, under the repository's nearest-rank rule (metrics.NearestRank).
// It reports ok=false when even the median has fewer than minBeyond
// samples beyond it.
func tailPercentile(xs []float64, minBeyond int) (p int, v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, math.NaN(), false
	}
	s := sorted(xs)
	for p = 99; p >= 50; p-- {
		if idx := metrics.NearestRank(n, float64(p)/100); n-1-idx >= minBeyond {
			return p, s[idx], true
		}
	}
	return 0, math.NaN(), false
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return metrics.Quantiles(xs, float64(p)/100)[0]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio divides and returns 0 for an empty denominator, so a layer that
// did no work reports 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
