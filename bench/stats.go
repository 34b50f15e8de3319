package main

import (
	"math"
	"sort"
)

// rank is the nearest rank of the p-th percentile among n samples,
// ceil(p/100 * n), in integer per-mille arithmetic so 99.9 of 10000 is
// exactly 9990.
func rank(p float64, n int) int {
	pm := int(math.Round(p * 10))
	return (pm*n + 999) / 1000
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest value with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[min(max(rank(p, len(sorted)), 1), len(sorted))-1]
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest ladder percentile that leaves at least
// ten of n samples beyond it, so a tail is never one unlucky sample. It
// returns 0 when n is too small for even the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is how
// the benchmark's spread is judged. With fewer than two values both are the
// single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
