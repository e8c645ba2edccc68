// Package loadgen is the traffic side of crbench: the seeded transaction
// mix, the pipelining SMTP client that drives it, the sink MX that
// receives the challenges, and the order statistics the report uses. It
// talks to the system under test only through sockets and imports
// nothing from repro/internal, so a refactor of the product cannot change
// what the benchmark sends or how it scores the replies.
package loadgen

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending: the smallest value with at least p%
// of the samples at or below it. With fewer than 100 samples the 99th
// percentile is therefore the maximum. An empty input returns 0.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Mean returns the arithmetic mean of vs, 0 for none.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Median returns the median of vs (mean of the middle two for an even
// count) without reordering the caller's slice.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) (the default "exclusive"
// method) computes them — the acceptance rule for a benchmark's
// steadiness is stated in those terms, so -repeat reports the same
// number. It needs at least two values.
func Quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// Spread is the interquartile range of vs as a share of its median —
// the run-to-run noise figure a metric's bound is compared with.
func Spread(vs []float64) float64 {
	med := Median(vs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(vs)
	return (q3 - q1) / math.Abs(med)
}
