package radio

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	// appendNear at its current position, and total stored IDs == nodes.
	total := 0
	for _, ids := range g.cells {
		total += len(ids)
	}
	if total != nodes {
		t.Errorf("grid stores %d ids, want %d", total, nodes)
	}
	for i, p := range pos {
		if !slices.Contains(g.appendNear(nil, p), uint32(i+1)) {
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
			near := g.appendNear(nil, p)
			if !slices.Contains(near, uint32(i+1)) {
				t.Fatalf("side %g: node %d missing from its own 3x3 block", side, i+1)
			}
			if nearby := len(near); nearby > 3 { // self plus at most the two diagonal neighbors
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

// allPairsRoster is the brute-force reference for Roster: every ordered pair
// tested, neighbors of i in ascending index order.
func allPairsRoster(pos []geo.Point, r float64) (start []int32, list []uint32) {
	start = make([]int32, len(pos)+1)
	for i := range pos {
		for j := range pos {
			dx, dy := pos[i].X-pos[j].X, pos[i].Y-pos[j].Y
			if i != j && dx*dx+dy*dy <= r*r {
				list = append(list, uint32(j))
			}
		}
		start[i+1] = int32(len(list))
	}
	return start, list
}

// TestRosterMatchesAllPairs checks the grid-built roster against the
// all-pairs reference on seeded uniform fields, and on lattices whose points
// sit on cell edges and corners with many pairs exactly R apart (the range
// test is inclusive, so those pairs are neighbors).
func TestRosterMatchesAllPairs(t *testing.T) {
	type field struct {
		name string
		pos  []geo.Point
		r    float64
	}
	var fields []field
	for _, c := range []struct {
		seed  int64
		n     int
		side  float64
		r     float64
		shift float64
	}{
		{1, 300, 700, 100, 0},
		{2, 600, 1200, 100, 0},
		{3, 200, 150, 100, 0},   // denser than one cell: every row long
		{4, 400, 2000, 37.5, 0}, // sparse: many empty rows
		{5, 250, 600, 100, -300},
	} {
		rng := rand.New(rand.NewSource(c.seed))
		pos := make([]geo.Point, c.n)
		for i := range pos {
			pos[i] = geo.Point{X: c.shift + rng.Float64()*c.side, Y: c.shift + rng.Float64()*c.side}
		}
		fields = append(fields, field{fmt.Sprintf("uniform seed %d", c.seed), pos, c.r})
	}
	// Lattices at spacing R/2 and R: points on cell edges and corners, with
	// axis pairs exactly R apart; the 60-80-100 offsets add diagonal pairs
	// exactly R apart that straddle cells.
	for _, step := range []float64{50, 100} {
		var pos []geo.Point
		for x := -200.0; x <= 400; x += step {
			for y := -200.0; y <= 400; y += step {
				pos = append(pos, geo.Point{X: x, Y: y}, geo.Point{X: x + 60, Y: y + 80})
			}
		}
		fields = append(fields, field{fmt.Sprintf("lattice step %g", step), pos, 100})
	}

	for _, f := range fields {
		wantStart, wantList := allPairsRoster(f.pos, f.r)
		gotStart, gotList := Roster(f.pos, f.r)
		if !slices.Equal(gotStart, wantStart) || !slices.Equal(gotList, wantList) {
			for i := range f.pos {
				got := gotList[gotStart[i]:gotStart[i+1]]
				want := wantList[wantStart[i]:wantStart[i+1]]
				if !slices.Equal(got, want) {
					t.Fatalf("%s: host %d at %v: Roster row %v, all-pairs row %v", f.name, i, f.pos[i], got, want)
				}
			}
			t.Fatalf("%s: Roster and all-pairs disagree", f.name)
		}
		if len(wantList) == 0 {
			t.Fatalf("%s: no neighbor pairs: the field tests nothing", f.name)
		}
	}

	// The lattices must really contain pairs at exactly R, or the inclusive
	// boundary goes untested.
	exact := 0
	for _, f := range fields[len(fields)-2:] {
		for i, p := range f.pos {
			for _, q := range f.pos[i+1:] {
				if p.Dist2(q) == f.r*f.r {
					exact++
				}
			}
		}
	}
	if exact == 0 {
		t.Fatal("no pair exactly R apart in the lattice fields")
	}
}
