// Package stats provides the statistical machinery of the measurement
// pipeline: streaming summaries, fixed-bucket histograms, empirical CDFs
// and Pearson correlation — the tools behind Figure 5 (correlation
// matrix), Figure 7 (delay CDFs), Figure 9 (churn histogram) and the
// various distribution summaries. The authors used Postgres plus Python
// scripts; here the same aggregates are computed online and in-process.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count/mean/variance/min/max online (Welford).
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates x.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Mean returns the running mean (0 with no observations).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the sample variance (0 with <2 observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 with none).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 with none).
func (s *Summary) Max() float64 { return s.max }

// Histogram counts observations into caller-defined buckets. Bucket i
// covers [Bounds[i-1], Bounds[i]); the last bucket is a catch-all for
// values >= Bounds[len-1]. This matches the paper's Figure 9 buckets
// (1–10, 10–30, 30–60, 60–120, 120–240, 240–600, >600).
type Histogram struct {
	bounds []float64
	counts []int64
	total  int64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Add counts x into its bucket.
func (h *Histogram) Add(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	// SearchFloat64s returns the first bound >= x; values equal to a
	// bound belong to the next bucket (half-open intervals).
	if i < len(h.bounds) && h.bounds[i] == x {
		i++
	}
	h.counts[i]++
	h.total++
}

// Merge adds another histogram's counts into h. The two must share
// identical bucket bounds — shard-local histograms of one measurement
// always do; anything else is a programming error and errors out.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("stats: merging histograms with %d vs %d bounds", len(h.bounds), len(o.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] {
			return fmt.Errorf("stats: merging histograms with different bound %d: %g vs %g", i, h.bounds[i], o.bounds[i])
		}
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.total += o.total
	return nil
}

// Fractions returns the per-bucket fractions (0s when empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// CDF collects samples and answers quantile/fraction queries over the
// empirical distribution.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF returns an empty CDF.
func NewCDF() *CDF { return &CDF{} }

// Add appends a sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// FractionBelow returns the empirical P(X <= x).
func (c *CDF) FractionBelow(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	i := sort.SearchFloat64s(c.samples, x)
	// Include equal samples.
	for i < len(c.samples) && c.samples[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.samples))
}

// Points returns up to n evenly-spaced (x, P(X<=x)) pairs for plotting.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	c.sort()
	if n > len(c.samples) {
		n = len(c.samples)
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := (i + 1) * len(c.samples) / n
		if idx > len(c.samples) {
			idx = len(c.samples)
		}
		x := c.samples[idx-1]
		out = append(out, [2]float64{x, float64(idx) / float64(len(c.samples))})
	}
	return out
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples xs and ys. It panics if the lengths differ and returns 0 when
// fewer than two pairs or either variance is zero.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson with mismatched lengths")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of the paired samples:
// Pearson over the ranks, robust to the heavy-tailed volume
// distributions in the Figure 11 analysis. Ties receive their average
// rank. It panics on mismatched lengths.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Spearman with mismatched lengths")
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks converts values to average-tie ranks (1-based).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// CorrelationMatrix computes pairwise Pearson correlations between the
// named columns. Columns must have equal lengths.
type CorrelationMatrix struct {
	Names []string
	R     [][]float64
}

// NewCorrelationMatrix computes the matrix for the given columns.
func NewCorrelationMatrix(names []string, cols [][]float64) *CorrelationMatrix {
	if len(names) != len(cols) {
		panic("stats: names/columns mismatch")
	}
	n := len(cols)
	r := make([][]float64, n)
	for i := range r {
		r[i] = make([]float64, n)
		for j := range r[i] {
			if i == j {
				r[i][j] = 1
				continue
			}
			r[i][j] = Pearson(cols[i], cols[j])
		}
	}
	return &CorrelationMatrix{Names: names, R: r}
}
