package netgen

import "repro/internal/geom"

// spatialGrid indexes a fixed point set in a uniform hash grid whose cell
// size equals the query radius, so every radius query inspects at most 27
// cells.
type spatialGrid struct {
	points []geom.Vec3
	grid   *geom.HashGrid
}

// newSpatialGrid indexes the given points with the given cell size (> 0).
func newSpatialGrid(points []geom.Vec3, cell float64) *spatialGrid {
	g := &spatialGrid{points: points, grid: geom.NewHashGrid(cell, len(points))}
	for i, p := range points {
		g.grid.Insert(int32(i), p)
	}
	return g
}

// neighborsWithin appends to dst the indices of all points within radius of
// points[i] (excluding i itself) and returns the extended slice. radius must
// not exceed the grid cell size.
func (g *spatialGrid) neighborsWithin(dst []int, i int, radius float64) []int {
	g.grid.VisitNear(g.points, g.points[i], radius, func(j int32) {
		if int(j) != i {
			dst = append(dst, int(j))
		}
	})
	return dst
}

// countEdges returns the number of unordered pairs within radius. Used by
// the radius auto-tuner, which needs degree estimates without materializing
// adjacency lists.
func (g *spatialGrid) countEdges(radius float64) int {
	r2 := radius * radius
	total := 0
	for i, p := range g.points {
		// Filter by ID before measuring: half the candidates are pairs
		// already counted from their other end.
		g.grid.VisitCells(p, radius, func(ids []int32) {
			for _, j := range ids {
				if int(j) > i && g.points[j].Dist2(p) <= r2 {
					total++
				}
			}
		})
	}
	return total
}
