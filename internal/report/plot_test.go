package report

import (
	"strings"
	"testing"
)

func TestPlotRendersPoints(t *testing.T) {
	p := &Plot{Title: "test curve", Width: 40, Height: 8}
	for i := 0; i <= 10; i++ {
		p.AddSeries([][2]float64{{float64(i), float64(i) / 10}})
	}
	out := p.Render()
	if !strings.Contains(out, "test curve") {
		t.Fatal("title missing")
	}
	if strings.Count(out, "*") < 8 {
		t.Fatalf("too few markers:\n%s", out)
	}
	// Axis labels: min and max y values.
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Fatalf("axis labels missing:\n%s", out)
	}
	// Monotone curve: the first grid row (max y) has its marker to the
	// right of the bottom row's marker.
	lines := strings.Split(out, "\n")
	var topIdx, botIdx int
	for _, l := range lines {
		if i := strings.IndexByte(l, '*'); i >= 0 {
			if topIdx == 0 {
				topIdx = i
			}
			botIdx = i
		}
	}
	if topIdx <= botIdx {
		t.Fatalf("rising curve renders falling: top marker at %d, bottom at %d\n%s", topIdx, botIdx, out)
	}
}

func TestPlotEmpty(t *testing.T) {
	p := &Plot{}
	if !strings.Contains(p.Render(), "no data") {
		t.Fatal("empty plot not flagged")
	}
}

func TestPlotSingleValueNoDivZero(t *testing.T) {
	p := &Plot{Width: 10, Height: 4}
	p.AddSeries([][2]float64{{5, 5}})
	p.AddSeries([][2]float64{{5, 5}})
	out := p.Render() // must not panic
	if !strings.Contains(out, "*") {
		t.Fatalf("point lost:\n%s", out)
	}
}

func TestPlotLogScale(t *testing.T) {
	lin := &Plot{Width: 60, Height: 6}
	logp := &Plot{Width: 60, Height: 6, XLog: true}
	// Delay-CDF-like data: 1 min .. ~3 days.
	xs := []float64{1, 5, 30, 240, 1440, 4320}
	for i, x := range xs {
		y := float64(i+1) / float64(len(xs))
		lin.AddSeries([][2]float64{{x, y}})
		logp.AddSeries([][2]float64{{x, y}})
	}
	linOut, logOut := lin.Render(), logp.Render()
	// On a linear axis the small-x points collapse into one column; on a
	// log axis they spread out. Count distinct marker columns.
	distinct := func(out string) int {
		cols := map[int]bool{}
		for _, l := range strings.Split(out, "\n") {
			for i := 0; i < len(l); i++ {
				if l[i] == '*' {
					cols[i] = true
				}
			}
		}
		return len(cols)
	}
	if distinct(logOut) <= distinct(linOut) {
		t.Fatalf("log axis did not spread points: log=%d lin=%d", distinct(logOut), distinct(linOut))
	}
	if !strings.Contains(logOut, "log10") {
		t.Fatal("log axis not annotated")
	}
}

func TestPlotAddSeriesAndClamp(t *testing.T) {
	p := &Plot{Width: 20, Height: 5, Marker: '#'}
	p.AddSeries([][2]float64{{0, 0}, {1, 0.5}, {2, 1}})
	out := p.Render()
	if strings.Count(out, "#") != 3 {
		t.Fatalf("markers = %d:\n%s", strings.Count(out, "#"), out)
	}
}
