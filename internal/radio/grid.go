package radio

import (
	"math"
	"slices"

	"clusterfds/internal/geo"
)

// grid is a uniform spatial hash with cell size equal to the transmission
// range, so all candidates within range of a point live in the 3x3 block of
// cells around it. It keeps Neighbors, Send and Roster at O(density)
// instead of O(network size), which matters for the 2000-node scalability runs.
type grid struct {
	cell  float64
	cells map[[2]int64][]uint32 // host slots (Medium.hosts indices)
}

func newGrid(cell float64) *grid {
	return &grid{cell: cell, cells: make(map[[2]int64][]uint32)}
}

// cellIndex maps one coordinate to its cell index with saturating conversion.
// The old int32 truncation was fine for the 500 m golden field but undefined
// for coordinates past ±2^31 cells: Go leaves out-of-range float→int
// conversion implementation-defined, so on amd64 every far-out coordinate
// collapsed into the same 0x80000000 cell — a silent collision that made the
// 3x3 probe return the whole far field. int64 indices cover any coordinate a
// float64 can express at integer precision, and explicit clamping keeps the
// non-finite edge cases (±Inf from a bad config, NaN from 0/0 motion)
// deterministic instead of implementation-defined.
func cellIndex(v, cell float64) int64 {
	f := math.Floor(v / cell)
	switch {
	case f != f: // NaN: pin to cell 0 rather than UB.
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

func (g *grid) key(p geo.Point) [2]int64 {
	return [2]int64{cellIndex(p.X, g.cell), cellIndex(p.Y, g.cell)}
}

func (g *grid) insert(id uint32, p geo.Point) {
	k := g.key(p)
	g.cells[k] = append(g.cells[k], id)
}

func (g *grid) remove(id uint32, p geo.Point) {
	k := g.key(p)
	ids := g.cells[k]
	for i, x := range ids {
		if x == id {
			if len(ids) == 1 {
				// Last occupant: delete the key outright. Keeping an
				// empty slice keyed forever (the pre-fix behavior) made
				// the cell map grow monotonically with every cell any
				// host EVER visited — under mobility a long random walk
				// leaked one map entry (plus slice header) per vacated
				// cell, and appendNear's 3x3 probes kept hashing into
				// an ever-larger table.
				delete(g.cells, k)
				return
			}
			ids[i] = ids[len(ids)-1]
			g.cells[k] = ids[:len(ids)-1]
			return
		}
	}
}

// liveCells returns how many cells currently hold at least one node.
// remove deletes emptied keys, so this equals len(g.cells); tests assert
// the equivalence to pin the no-leak invariant.
func (g *grid) liveCells() int {
	n := 0
	for _, ids := range g.cells {
		if len(ids) > 0 {
			n++
		}
	}
	return n
}

func (g *grid) move(id uint32, from, to geo.Point) {
	if g.key(from) == g.key(to) {
		return
	}
	g.remove(id, from)
	g.insert(id, to)
}

// appendNear appends every ID in the 3x3 cell block around p to dst and
// returns it, in a fixed cell order. Callers still need an exact range check;
// the grid only prunes.
func (g *grid) appendNear(dst []uint32, p geo.Point) []uint32 {
	c := g.key(p)
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			dst = append(dst, g.cells[[2]int64{c[0] + dx, c[1] + dy}]...)
		}
	}
	return dst
}

// Roster returns the static neighbor table of hosts at pos with range r in
// compressed-row form: host i's neighbors are list[start[i]:start[i+1]],
// ascending. It runs the medium's own query (the grid's 3x3 probe, then the
// inclusive WithinRange test), so a row is exactly whom a Medium would reach.
func Roster(pos []geo.Point, r float64) (start []int32, list []uint32) {
	g := newGrid(r)
	for i, p := range pos {
		g.insert(uint32(i), p)
	}
	start = make([]int32, len(pos)+1)
	var near []uint32
	for i, p := range pos {
		near = g.appendNear(near[:0], p)
		row := len(list)
		for _, j := range near {
			if j != uint32(i) && p.WithinRange(pos[j], r) {
				list = append(list, j)
			}
		}
		slices.Sort(list[row:])
		start[i+1] = int32(len(list))
	}
	return start, list
}
