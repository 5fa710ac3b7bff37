package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of sorted by linear interpolation between
// the two nearest ranks. Samples are kept exactly, not bucketed:
// internal/metrics.Histogram rounds to 6.25 %, coarser than the bounds.
func quantile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return float64(sorted[lo]) + (pos-float64(lo))*float64(sorted[hi]-sorted[lo])
}

// tailPercentile is the highest percentile, at most limit, that still has at
// least ten of n samples beyond it. With fewer than twenty samples only the
// median is supported.
func tailPercentile(n int, limit float64) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(limit, 1-10/float64(n))
}

func sortedCopy(parts ...[]int64) []int64 {
	var out []int64
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (exclusive method): the measure the driver accepts the benchmark by.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	med := medianFloat(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
