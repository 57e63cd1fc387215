package geom

import "math"

// HashGrid is a dynamic uniform hash grid over int32 point IDs: cubic
// cells of a fixed size, keyed by the floor of each coordinate over the
// cell size, each holding the IDs inserted there. Unlike PointGrid, which
// packs a fixed point set into a dense cell array, it supports Insert and
// Remove and stores no positions: range queries read them from the
// caller's slice. Network connectivity (internal/netgen) and the
// incremental detection engine's neighbor and dirty-region queries use it
// with the radio range as the cell size.
type HashGrid struct {
	cell  float64
	cells map[hashCell][]int32
}

type hashCell struct{ x, y, z int32 }

// NewHashGrid returns an empty grid with the given cell size (> 0), its
// cell map sized for about n points.
func NewHashGrid(cell float64, n int) *HashGrid {
	return &HashGrid{cell: cell, cells: make(map[hashCell][]int32, n)}
}

func (g *HashGrid) key(p Vec3) hashCell {
	return hashCell{
		x: int32(math.Floor(p.X / g.cell)),
		y: int32(math.Floor(p.Y / g.cell)),
		z: int32(math.Floor(p.Z / g.cell)),
	}
}

// Insert adds id at position p.
func (g *HashGrid) Insert(id int32, p Vec3) {
	k := g.key(p)
	g.cells[k] = append(g.cells[k], id)
}

// Remove deletes id, inserted at position p; a no-op when it is absent.
func (g *HashGrid) Remove(id int32, p Vec3) {
	k := g.key(p)
	cell := g.cells[k]
	for i, v := range cell {
		if v == id {
			cell[i] = cell[len(cell)-1]
			cell = cell[:len(cell)-1]
			break
		}
	}
	if len(cell) == 0 {
		delete(g.cells, k)
	} else {
		g.cells[k] = cell
	}
}

// VisitCells calls fn with the IDs of every cell that meets the cube
// p ± r, in ascending key order. The order within a cell is not specified,
// and fn must not keep or modify the slice.
func (g *HashGrid) VisitCells(p Vec3, r float64, fn func(ids []int32)) {
	lo := g.key(Vec3{X: p.X - r, Y: p.Y - r, Z: p.Z - r})
	hi := g.key(Vec3{X: p.X + r, Y: p.Y + r, Z: p.Z + r})
	for x := lo.x; x <= hi.x; x++ {
		for y := lo.y; y <= hi.y; y++ {
			for z := lo.z; z <= hi.z; z++ {
				if ids := g.cells[hashCell{x, y, z}]; len(ids) > 0 {
					fn(ids)
				}
			}
		}
	}
}

// VisitNear calls fn for every indexed ID whose position pos[id] lies
// within r of p (Dist2 <= r²), p's own ID included when it is indexed, in
// VisitCells order; callers that need ID order sort.
func (g *HashGrid) VisitNear(pos []Vec3, p Vec3, r float64, fn func(id int32)) {
	r2 := r * r
	g.VisitCells(p, r, func(ids []int32) {
		for _, id := range ids {
			if pos[id].Dist2(p) <= r2 {
				fn(id)
			}
		}
	})
}
