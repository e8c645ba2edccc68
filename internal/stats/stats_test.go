package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.n != 0 || s.Mean() != 0 || s.Var() != 0 {
		t.Fatal("zero Summary not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 {
		t.Fatalf("n = %d", s.n)
	}
	if !approx(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if !approx(s.Var(), 32.0/7, 1e-12) {
		t.Fatalf("Var = %v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummarySingleValue(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Mean() != 42 || s.Var() != 0 || s.Std() != 0 || s.Min() != 42 || s.Max() != 42 {
		t.Fatal("single-value summary wrong")
	}
}

// Property: Welford mean matches naive mean.
func TestSummaryMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		var s Summary
		var sum float64
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
			s.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return approx(s.Mean(), mean, 1e-6) && approx(s.Var(), ss/float64(n-1), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	// The paper's Figure 9 buckets (new whitelist entries in 60 days).
	h := NewHistogram(10, 30, 60, 120, 240, 600)
	for _, x := range []float64{1, 5, 9, 10, 29, 30, 120, 601, 9999} {
		h.Add(x)
	}
	got := h.counts
	// <10: {1,5,9}; 10-30: {10,29}; 30-60: {30}; 60-120: {}; 120-240: {120}; 240-600: {}; >=600: {601, 9999}
	want := []int64{3, 2, 1, 0, 1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Counts = %v, want %v", got, want)
		}
	}
	if h.total != 9 {
		t.Fatalf("total = %d", h.total)
	}
	fr := h.Fractions()
	if !approx(fr[0], 3.0/9, 1e-12) {
		t.Fatalf("Fractions[0] = %v", fr[0])
	}
}

func TestHistogramEmptyFractions(t *testing.T) {
	h := NewHistogram(1, 2)
	for _, f := range h.Fractions() {
		if f != 0 {
			t.Fatal("empty histogram fractions must be 0")
		}
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds did not panic")
		}
	}()
	NewHistogram(10, 5)
}

// Property: histogram total equals sum of buckets.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram(-100, -10, 0, 10, 100)
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
		}
		var sum int64
		for _, c := range h.counts {
			sum += c
		}
		return sum == h.total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFFractionBelow(t *testing.T) {
	c := NewCDF()
	if c.FractionBelow(1) != 0 {
		t.Fatal("empty CDF fraction != 0")
	}
	for _, x := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		c.Add(x)
	}
	if got := c.FractionBelow(5); got != 0.5 {
		t.Fatalf("P(X<=5) = %v, want 0.5", got)
	}
	if got := c.FractionBelow(0); got != 0 {
		t.Fatalf("P(X<=0) = %v", got)
	}
	if got := c.FractionBelow(100); got != 1 {
		t.Fatalf("P(X<=100) = %v", got)
	}
}

func TestCDFAddAfterQueryResorts(t *testing.T) {
	c := NewCDF()
	c.Add(10)
	_ = c.FractionBelow(5)
	c.Add(1) // must re-sort
	if f := c.FractionBelow(1); f != 0.5 {
		t.Fatalf("P(X <= 1) after late add = %v, want 0.5", f)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF()
	for i := 1; i <= 50; i++ {
		c.Add(float64(i))
	}
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points = %d, want 5", len(pts))
	}
	if pts[4][1] != 1 {
		t.Fatalf("last point fraction = %v, want 1", pts[4][1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Fatal("Points not monotonic")
		}
	}
	if NewCDF().Points(5) != nil {
		t.Fatal("empty Points != nil")
	}
}

// Property: quantile is monotone in q.
func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !approx(r, 1, 1e-12) {
		t.Fatalf("r = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !approx(r, -1, 1e-12) {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{1, -1, 1, -1} // orthogonal-ish
	r := Pearson(xs, ys)
	if math.Abs(r) > 0.5 {
		t.Fatalf("r = %v, want near 0", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Fatal("n=1 r != 0")
	}
	if Pearson([]float64{3, 3, 3}, []float64{1, 2, 3}) != 0 {
		t.Fatal("zero-variance r != 0")
	}
}

func TestPearsonMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	Pearson([]float64{1, 2}, []float64{1})
}

// Property: Pearson is symmetric and within [-1, 1].
func TestPearsonProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(50)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = r.NormFloat64(), r.NormFloat64()
		}
		a, b := Pearson(xs, ys), Pearson(ys, xs)
		return approx(a, b, 1e-12) && a >= -1.0000001 && a <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// A monotone but non-linear relationship: Spearman = 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{1, 8, 27, 64, 125, 216}
	if r := Spearman(xs, ys); !approx(r, 1, 1e-12) {
		t.Fatalf("Spearman = %v, want 1", r)
	}
	if r := Pearson(xs, ys); r >= 0.999 {
		t.Fatalf("Pearson = %v, want < 1 (nonlinear)", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{10, 20, 20, 30}
	if r := Spearman(xs, ys); !approx(r, 1, 1e-12) {
		t.Fatalf("Spearman with ties = %v, want 1", r)
	}
}

func TestSpearmanAntitone(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{100, 10, 5, 1}
	if r := Spearman(xs, ys); !approx(r, -1, 1e-12) {
		t.Fatalf("Spearman = %v, want -1", r)
	}
}

func TestSpearmanMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Spearman did not panic")
		}
	}()
	Spearman([]float64{1}, []float64{1, 2})
}

func TestRanksAverageTies(t *testing.T) {
	got := ranks([]float64{30, 10, 20, 20})
	want := []float64{4, 1, 2.5, 2.5}
	for i := range want {
		if !approx(got[i], want[i], 1e-12) {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

func TestCorrelationMatrix(t *testing.T) {
	users := []float64{100, 200, 400, 800}
	emails := []float64{1000, 2100, 3900, 8100} // ~ proportional to users
	captcha := []float64{0.05, 0.04, 0.05, 0.04}
	m := NewCorrelationMatrix(
		[]string{"users", "emails", "captcha"},
		[][]float64{users, emails, captcha},
	)
	if m.R[0][0] != 1 || m.R[1][1] != 1 {
		t.Fatal("diagonal != 1")
	}
	if r := m.R[0][1]; r < 0.99 {
		t.Fatalf("corr(users, emails) = %v", r)
	}
	if !approx(m.R[0][1], m.R[1][0], 1e-12) {
		t.Fatal("matrix not symmetric")
	}
}

func TestCorrelationMatrixMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatch did not panic")
		}
	}()
	NewCorrelationMatrix([]string{"a"}, [][]float64{{1}, {2}})
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 1000))
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram(10, 30, 60, 120, 240, 600)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(float64(i % 1000))
	}
}

func BenchmarkPearson(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs, ys := make([]float64, 1000), make([]float64, 1000)
	for i := range xs {
		xs[i], ys[i] = r.Float64(), r.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pearson(xs, ys)
	}
}

// TestHistogramMerge: counts add bucket-wise; mismatched bounds refuse.
func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(10, 30, 60)
	b := NewHistogram(10, 30, 60)
	for _, x := range []float64{1, 15, 45, 100} {
		a.Add(x)
	}
	for _, x := range []float64{5, 35, 200, 300} {
		b.Add(x)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.total != 8 {
		t.Fatalf("total = %d", a.total)
	}
	want := []int64{2, 1, 2, 3}
	for i, c := range a.counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if err := a.Merge(NewHistogram(10, 30)); err == nil {
		t.Fatal("bound-count mismatch accepted")
	}
	if err := a.Merge(NewHistogram(10, 30, 90)); err == nil {
		t.Fatal("bound-value mismatch accepted")
	}
}
