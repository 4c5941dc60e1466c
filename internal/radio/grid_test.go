package radio

import (
	"math"
	"math/rand"
	"testing"

	"clusterfds/internal/geo"
)

// TestGridNoEmptyCellLeakUnderMobility pins the fix for the grid.remove leak:
// before the fix, vacating the last occupant of a cell left an empty []NodeID
// slice keyed in g.cells forever, so a long random walk grew the map with one
// dead entry per cell any host ever visited. After the fix the map holds
// exactly the currently occupied cells.
func TestGridNoEmptyCellLeakUnderMobility(t *testing.T) {
	const (
		cell  = 100.0
		nodes = 50
		steps = 4000
		side  = 5000.0 // 50x50 = 2500 cells >> nodes, so walks vacate cells constantly
	)
	g := newGrid(cell)
	rng := rand.New(rand.NewSource(42))

	pos := make([]geo.Point, nodes)
	for i := range pos {
		pos[i] = geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		g.insert(uint32(i+1), pos[i])
	}

	for s := 0; s < steps; s++ {
		i := rng.Intn(nodes)
		to := geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		g.move(uint32(i+1), pos[i], to)
		pos[i] = to
	}

	// Ground truth: the set of cells currently occupied by at least one node.
	occupied := make(map[[2]int64]bool)
	for _, p := range pos {
		occupied[g.key(p)] = true
	}

	if got, want := g.liveCells(), len(occupied); got != want {
		t.Errorf("liveCells = %d, want %d occupied cells", got, want)
	}
	// The no-leak invariant: every key in the map is a live cell. Pre-fix this
	// failed with len(g.cells) in the thousands (one per vacated cell).
	if got, want := len(g.cells), len(occupied); got != want {
		t.Errorf("len(g.cells) = %d, want %d: %d leaked empty-cell keys",
			got, want, got-want)
	}

	// Membership must still be exact after the churn: every node findable via
	// forNear at its current position, and total stored IDs == nodes.
	total := 0
	for _, ids := range g.cells {
		total += len(ids)
	}
	if total != nodes {
		t.Errorf("grid stores %d ids, want %d", total, nodes)
	}
	for i, p := range pos {
		found := false
		g.forNear(p, func(id uint32) {
			if id == uint32(i+1) {
				found = true
			}
		})
		if !found {
			t.Errorf("node %d not found near its own position after walk", i+1)
		}
	}
}

// TestGridLargeCoordinateRanges pins cell-key arithmetic for the fields the
// sharded kernel runs at — sides of 10^4 m (the 1M-node crash wave) and far
// beyond. Before the int64 fix, key() truncated through int32, which Go
// leaves implementation-defined for out-of-range floats: every coordinate
// past ±2^31 cells collapsed into one cell on amd64, silently colliding.
func TestGridLargeCoordinateRanges(t *testing.T) {
	const cell = 100.0
	for _, side := range []float64{1e4, 1e6, 1e9, 1e12} {
		g := newGrid(cell)
		// Place nodes along the diagonal, one per cell — any key collision
		// would merge two of them into one cell slice.
		const n = 64
		step := side / n
		pts := make([]geo.Point, n)
		for i := 0; i < n; i++ {
			pts[i] = geo.Point{X: float64(i) * step, Y: float64(i) * step}
			g.insert(uint32(i+1), pts[i])
		}
		if got := len(g.cells); got != n {
			t.Errorf("side %g: %d nodes in distinct cells hash to %d keys (collision)", side, n, got)
		}
		// Each node must be findable near its own position, and the 3x3
		// probe around a point must not drag in far-away nodes.
		for i, p := range pts {
			found, nearby := false, 0
			g.forNear(p, func(id uint32) {
				nearby++
				if id == uint32(i+1) {
					found = true
				}
			})
			if !found {
				t.Fatalf("side %g: node %d missing from its own 3x3 block", side, i+1)
			}
			if nearby > 3 { // self plus at most the two diagonal neighbors
				t.Fatalf("side %g: 3x3 block around node %d returned %d nodes", side, i+1, nearby)
			}
		}
	}
}

// TestGridExtremeAndNonFiniteCoordinates checks the saturating edges: keys
// stay deterministic (no implementation-defined conversion) for coordinates
// at float64 extremes, and distinct far-out positions do not collide the way
// the int32 truncation made them.
func TestGridExtremeAndNonFiniteCoordinates(t *testing.T) {
	g := newGrid(100)
	// Two positions that int32 truncation mapped to the same 0x80000000 cell.
	a := geo.Point{X: 1e15, Y: 0}
	b := geo.Point{X: 2e15, Y: 0}
	if g.key(a) == g.key(b) {
		t.Errorf("distinct far-out coordinates collide: key(%v) == key(%v) = %v", a, b, g.key(a))
	}
	// Negative coordinates land in distinct negative cells (floor, not trunc).
	if k := g.key(geo.Point{X: -50, Y: -150}); k != [2]int64{-1, -2} {
		t.Errorf("key(-50,-150) = %v, want [-1 -2]", k)
	}
	// Non-finite inputs get clamped, deterministically, without panicking.
	inf := math.Inf(1)
	nan := math.NaN()
	if k := g.key(geo.Point{X: inf, Y: -inf}); k != [2]int64{math.MaxInt64, math.MinInt64} {
		t.Errorf("key(+Inf,-Inf) = %v, want saturated extremes", k)
	}
	if k := g.key(geo.Point{X: nan, Y: nan}); k != [2]int64{0, 0} {
		t.Errorf("key(NaN,NaN) = %v, want pinned [0 0]", k)
	}
	// Insert/remove round-trips at the extremes must not leak or lose nodes.
	for i, p := range []geo.Point{a, b, {X: inf, Y: inf}, {X: -1e300, Y: 1e300}} {
		g.insert(uint32(i+1), p)
	}
	if g.liveCells() != 4 {
		t.Errorf("liveCells = %d after 4 extreme inserts, want 4", g.liveCells())
	}
	for i, p := range []geo.Point{a, b, {X: inf, Y: inf}, {X: -1e300, Y: 1e300}} {
		g.remove(uint32(i+1), p)
	}
	if len(g.cells) != 0 {
		t.Errorf("cells leak after removing extreme nodes: %d keys", len(g.cells))
	}
}
