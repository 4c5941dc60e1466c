// Package textplot renders simple ASCII charts for terminal output: the
// figure-regeneration tool and the examples use it to show the paper's
// log-scale curves without any plotting dependency.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name   string
	X      []float64
	Y      []float64
	Marker byte
}

// Chart is an ASCII chart specification.
type Chart struct {
	Title  string
	XLabel string
	// LogY plots log10(y); zero or negative values are clamped to YFloor.
	LogY bool
	// YFloor is the smallest positive value representable when LogY is
	// set (default 1e-30, the paper's lowest axis mark).
	YFloor float64
	// Width and Height are the plot area size in characters (defaults
	// 64x20).
	Width, Height int
	Series        []Series
}

// defaultMarkers cycles when a series has no explicit marker.
var defaultMarkers = []byte{'*', '+', 'o', 'x', '#', '@'}

// Render draws the chart into a string.
func (c Chart) Render() string {
	if c.Width <= 0 {
		c.Width = 64
	}
	if c.Height <= 0 {
		c.Height = 20
	}
	if c.YFloor <= 0 {
		c.YFloor = 1e-30
	}
	if len(c.Series) == 0 {
		return c.Title + "\n(no data)\n"
	}

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	tr := func(y float64) float64 {
		if c.LogY {
			if y < c.YFloor {
				y = c.YFloor
			}
			return math.Log10(y)
		}
		return y
	}
	for _, s := range c.Series {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, tr(s.Y[i]))
			ymax = math.Max(ymax, tr(s.Y[i]))
		}
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, c.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", c.Width))
	}
	for si, s := range c.Series {
		marker := s.Marker
		if marker == 0 {
			marker = defaultMarkers[si%len(defaultMarkers)]
		}
		for i := range s.X {
			col := int((s.X[i] - xmin) / (xmax - xmin) * float64(c.Width-1))
			row := c.Height - 1 - int((tr(s.Y[i])-ymin)/(ymax-ymin)*float64(c.Height-1))
			if col >= 0 && col < c.Width && row >= 0 && row < c.Height {
				grid[row][col] = marker
			}
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	yLabelAt := func(row int) string {
		v := ymax - (ymax-ymin)*float64(row)/float64(c.Height-1)
		if c.LogY {
			return fmt.Sprintf("%8.0e", math.Pow(10, v))
		}
		return fmt.Sprintf("%8.3g", v)
	}
	for i, line := range grid {
		label := strings.Repeat(" ", 8)
		if i == 0 || i == c.Height-1 || i == c.Height/2 {
			label = yLabelAt(i)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, line)
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", 8), strings.Repeat("-", c.Width))
	fmt.Fprintf(&b, "%s  %-10.3g%s%10.3g\n", strings.Repeat(" ", 8), xmin,
		strings.Repeat(" ", max(0, c.Width-20)), xmax)
	if c.XLabel != "" {
		fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", 8), c.XLabel)
	}
	var legend []string
	for si, s := range c.Series {
		marker := s.Marker
		if marker == 0 {
			marker = defaultMarkers[si%len(defaultMarkers)]
		}
		legend = append(legend, fmt.Sprintf("%c %s", marker, s.Name))
	}
	fmt.Fprintf(&b, "%s  legend: %s\n", strings.Repeat(" ", 8), strings.Join(legend, "   "))
	return b.String()
}
