package report

import (
	"fmt"
	"math"
	"strings"
)

// Plot renders an ASCII scatter/step plot of (x, y) points on a
// width×height character grid, with min/max axis annotations — enough to
// eyeball the shape of a CDF (Figure 7) or a time series the way the
// paper's figures do. Points outside the axis ranges are clamped.
type Plot struct {
	Title  string
	Width  int
	Height int
	// XLog plots x on a log10 scale (useful for delay CDFs spanning
	// minutes to days).
	XLog bool
	// Marker is the point glyph (default '*').
	Marker byte

	points [][2]float64
}

// AddSeries appends many points.
func (p *Plot) AddSeries(pts [][2]float64) {
	p.points = append(p.points, pts...)
}

// Render draws the plot.
func (p *Plot) Render() string {
	w, h := p.Width, p.Height
	if w <= 0 {
		w = 60
	}
	if h <= 0 {
		h = 12
	}
	marker := p.Marker
	if marker == 0 {
		marker = '*'
	}
	var b strings.Builder
	if p.Title != "" {
		b.WriteString(p.Title)
		b.WriteByte('\n')
	}
	if len(p.points) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}

	tx := func(x float64) float64 {
		if p.XLog {
			if x < 1e-9 {
				x = 1e-9
			}
			return math.Log10(x)
		}
		return x
	}

	minX, maxX := tx(p.points[0][0]), tx(p.points[0][0])
	minY, maxY := p.points[0][1], p.points[0][1]
	for _, pt := range p.points {
		x, y := tx(pt[0]), pt[1]
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	for _, pt := range p.points {
		cx := int((tx(pt[0]) - minX) / (maxX - minX) * float64(w-1))
		cy := int((pt[1] - minY) / (maxY - minY) * float64(h-1))
		if cx < 0 {
			cx = 0
		}
		if cx >= w {
			cx = w - 1
		}
		if cy < 0 {
			cy = 0
		}
		if cy >= h {
			cy = h - 1
		}
		grid[h-1-cy][cx] = marker
	}

	yLabel := func(v float64) string { return fmt.Sprintf("%8.3g", v) }
	for i, row := range grid {
		switch i {
		case 0:
			b.WriteString(yLabel(maxY))
		case h - 1:
			b.WriteString(yLabel(minY))
		default:
			b.WriteString(strings.Repeat(" ", 8))
		}
		b.WriteString(" |")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 8))
	b.WriteString(" +")
	b.WriteString(strings.Repeat("-", w))
	b.WriteByte('\n')
	xmin, xmax := minX, maxX
	unit := ""
	if p.XLog {
		unit = " (log10)"
	}
	b.WriteString(fmt.Sprintf("%9s  %-.4g%s%*s%.4g%s\n", "", xmin, unit,
		w-len(fmt.Sprintf("%.4g%s", xmin, unit))-len(fmt.Sprintf("%.4g", xmax)), "", xmax, unit))
	return b.String()
}
