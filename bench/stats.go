package main

import (
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending without touching the caller's slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the middle pair for even n), 0
// for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least p percent of the samples at or below it. It never interpolates, so a
// reported latency is always one that was measured.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the benchmark driver computes spreads
// with, so -compare prints the numbers the driver will see. It needs two
// samples; with fewer every quartile is the median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m, m
	}
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against.
func spreadShare(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// isFinite guards metric values: a NaN or Inf would break the JSON line.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
