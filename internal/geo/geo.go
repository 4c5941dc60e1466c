// Package geo provides the 2-D geometry primitives used throughout the
// simulator and the analytic models: points and distances, uniform random
// placement of hosts in rectangular and circular fields, unit-disk
// intersection areas, and the specific neighborhood-area integral used by
// the paper's probabilistic analysis (Section 5, Figure 4(b)).
//
// All lengths are in meters and all areas in square meters, matching the
// paper's assumption of a 100 m transmission range.
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a location in the 2-D deployment field.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for range comparisons on the hot path of the radio medium.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// WithinRange reports whether q lies within transmission range r of p
// (inclusive, matching the paper's definition of a one-hop neighbor: "at a
// distance from v less than or equal to R").
func (p Point) WithinRange(q Point, r float64) bool {
	return p.Dist2(q) <= r*r
}

// String implements fmt.Stringer for debugging and traces.
func (p Point) String() string {
	return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y)
}

// Rect is an axis-aligned rectangular deployment field.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning [0,w] x [0,h].
func NewRect(w, h float64) Rect {
	return Rect{MaxX: w, MaxY: h}
}

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// UniformInRect draws a point uniformly at random inside r.
func UniformInRect(rng *rand.Rand, r Rect) Point {
	return Point{
		X: r.MinX + rng.Float64()*r.Width(),
		Y: r.MinY + rng.Float64()*r.Height(),
	}
}

// UniformInDisk draws a point uniformly at random inside the disk of radius
// radius centered at c, using the inverse-CDF method so the distribution is
// uniform over area rather than over radius.
func UniformInDisk(rng *rand.Rand, c Point, radius float64) Point {
	r := radius * math.Sqrt(rng.Float64())
	theta := 2 * math.Pi * rng.Float64()
	return Point{X: c.X + r*math.Cos(theta), Y: c.Y + r*math.Sin(theta)}
}

// PlaceUniformRect places n points uniformly at random in the rectangle.
// It is the standard deployment model for air-dropped sensor fields.
func PlaceUniformRect(rng *rand.Rand, field Rect, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = UniformInRect(rng, field)
	}
	return pts
}

// OnCircle returns the point at the given angle (radians) on the circle of
// the given radius around c. Used to place worst-case nodes on a cluster's
// circumference, as in the paper's upper-bound analysis.
func OnCircle(c Point, radius, angle float64) Point {
	return Point{X: c.X + radius*math.Cos(angle), Y: c.Y + radius*math.Sin(angle)}
}

// DiskArea returns the area of a disk with the given radius.
func DiskArea(radius float64) float64 {
	return math.Pi * radius * radius
}

// LensArea returns the area of the intersection of two disks of radii r1 and
// r2 whose centers are distance d apart. It handles the degenerate cases of
// disjoint disks (0) and containment (area of the smaller disk).
func LensArea(r1, r2, d float64) float64 {
	if r1 < 0 || r2 < 0 || d < 0 {
		return 0
	}
	if d >= r1+r2 {
		return 0
	}
	small, big := math.Min(r1, r2), math.Max(r1, r2)
	if d <= big-small {
		return DiskArea(small)
	}
	// Standard circular-segment decomposition.
	d1 := (d*d + r1*r1 - r2*r2) / (2 * d)
	d2 := d - d1
	a1 := r1*r1*math.Acos(clamp(d1/r1, -1, 1)) - d1*math.Sqrt(math.Max(0, r1*r1-d1*d1))
	a2 := r2*r2*math.Acos(clamp(d2/r2, -1, 1)) - d2*math.Sqrt(math.Max(0, r2*r2-d2*d2))
	return a1 + a2
}

// clamp bounds x to [lo, hi], guarding Acos against floating-point drift.
func clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// NeighborhoodAreaIntegral evaluates the paper's integral for the in-cluster
// neighborhood area An of a node located on the circumference of a cluster
// of radius R:
//
//	An = 4 * Integral[0, c] (sqrt(R^2 - x^2) - R/2) dx,  c = sqrt(R^2 - (R/2)^2)
//
// (Section 5.1, Figure 4(b)). It integrates numerically with adaptive
// Simpson quadrature; NeighborhoodArea gives the closed form. Both are
// exported so tests can verify they agree.
func NeighborhoodAreaIntegral(radius float64) float64 {
	c := math.Sqrt(radius*radius - (radius/2)*(radius/2))
	f := func(x float64) float64 {
		return math.Sqrt(math.Max(0, radius*radius-x*x)) - radius/2
	}
	return 4 * adaptiveSimpson(f, 0, c, 1e-10, 30)
}

// NeighborhoodArea returns the closed-form value of the same area: it is the
// lens of two radius-R disks at center distance R, 2R^2(pi/3 - sqrt(3)/4).
func NeighborhoodArea(radius float64) float64 {
	return 2 * radius * radius * (math.Pi/3 - math.Sqrt(3)/4)
}

// NeighborhoodFraction returns a = An/Au, the fraction of the cluster disk
// covered by the neighborhood of a node on the circumference (~0.391). This
// constant is scale-free: it does not depend on the radius.
func NeighborhoodFraction() float64 {
	const r = 1.0
	return NeighborhoodArea(r) / DiskArea(r)
}

// adaptiveSimpson integrates f over [a,b] with tolerance eps, recursing at
// most depth levels.
func adaptiveSimpson(f func(float64) float64, a, b, eps float64, depth int) float64 {
	c := (a + b) / 2
	fa, fb, fc := f(a), f(b), f(c)
	s := simpson(fa, fc, fb, a, b)
	return adaptiveSimpsonRec(f, a, b, eps, s, fa, fb, fc, depth)
}

func simpson(fa, fc, fb, a, b float64) float64 {
	return (b - a) / 6 * (fa + 4*fc + fb)
}

func adaptiveSimpsonRec(f func(float64) float64, a, b, eps, whole, fa, fb, fc float64, depth int) float64 {
	c := (a + b) / 2
	lm, rm := (a+c)/2, (c+b)/2
	flm, frm := f(lm), f(rm)
	left := simpson(fa, flm, fc, a, c)
	right := simpson(fc, frm, fb, c, b)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*eps {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpsonRec(f, a, c, eps/2, left, fa, fc, flm, depth-1) +
		adaptiveSimpsonRec(f, c, b, eps/2, right, fc, fb, frm, depth-1)
}

// IntersectionAreaMonteCarlo estimates, by rejection sampling with the given
// number of samples, the area of the region inside the disk (c1, r1) that is
// also inside the disk (c2, r2). It exists to cross-validate the closed
// forms in tests and in the DCH-reachability study.
func IntersectionAreaMonteCarlo(rng *rand.Rand, c1 Point, r1 float64, c2 Point, r2 float64, samples int) float64 {
	if samples <= 0 {
		return 0
	}
	hit := 0
	for i := 0; i < samples; i++ {
		p := UniformInDisk(rng, c1, r1)
		if p.WithinRange(c2, r2) {
			hit++
		}
	}
	return DiskArea(r1) * float64(hit) / float64(samples)
}
