package geom

import "math"

// PointGrid is a reusable uniform bucket grid over a point set, the
// spatial index behind shard assignment (internal/partition/shard walks its
// cells in flat index order). Cells are cubes of a caller-chosen size; each
// point lands in exactly one cell.
//
// The grid stores bucket membership in a compact CSR layout (one item
// array plus per-cell offsets) instead of per-cell slices, so a Build
// over inputs of similar size reuses the previous allocation. A zero
// PointGrid is ready to Build.
type PointGrid struct {
	cell       float64 // effective cell size (grown for spread-out inputs)
	inv        float64 // 1/cell
	min        Vec3    // grid origin (bbox minimum)
	nx, ny, nz int

	// CSR buckets: cell (x,y,z) holds items[starts[c]:starts[c+1]] with
	// c = (x*ny+y)*nz+z; item values are indices into points, ascending
	// within each cell.
	starts []int32
	items  []int32
}

// maxCellsFactor bounds the cell-array size relative to the point count:
// pathologically spread-out inputs get their cell size grown instead of
// an unbounded cell array.
const maxCellsFactor = 8

// Build indexes points with the given cell size (> 0), replacing any
// previous contents. Building an empty set yields a grid with no cells.
func (g *PointGrid) Build(points []Vec3, cell float64) {
	if len(points) == 0 {
		g.nx, g.ny, g.nz = 0, 0, 0
		g.items = g.items[:0]
		return
	}
	box := BoundingBox(points)
	size := box.Size()

	// Grow the cell until the cell array stays proportional to the point
	// count. Deterministic in the inputs, so the cell walk is
	// reproducible.
	// The count check runs in floating point: for extreme spreads the
	// integer per-axis product overflows before the first doubling.
	limit := float64(maxCellsFactor*len(points) + 64)
	for {
		fx := math.Floor(size.X/cell) + 1
		fy := math.Floor(size.Y/cell) + 1
		fz := math.Floor(size.Z/cell) + 1
		if fx*fy*fz <= limit {
			g.nx, g.ny, g.nz = int(fx), int(fy), int(fz)
			break
		}
		cell *= 2
	}
	g.cell = cell
	g.inv = 1 / cell
	g.min = box.Min

	ncells := g.nx * g.ny * g.nz
	if cap(g.starts) < ncells+1 {
		g.starts = make([]int32, ncells+1)
	} else {
		g.starts = g.starts[:ncells+1]
		for i := range g.starts {
			g.starts[i] = 0
		}
	}
	if cap(g.items) < len(points) {
		g.items = make([]int32, len(points))
	} else {
		g.items = g.items[:len(points)]
	}

	// Counting sort: bucket sizes, prefix offsets, then a stable fill in
	// ascending point order.
	for i := range points {
		g.starts[g.cellOf(points[i])+1]++
	}
	for c := 0; c < ncells; c++ {
		g.starts[c+1] += g.starts[c]
	}
	// starts now holds final offsets; use a second pass with a moving
	// cursor per cell. Reuse starts as the cursor array and rebuild it
	// afterwards by shifting.
	for i := range points {
		c := g.cellOf(points[i])
		g.items[g.starts[c]] = int32(i)
		g.starts[c]++
	}
	// Shift cursors back down to starts: after the fill, starts[c] is the
	// end of cell c, i.e. the start of cell c+1.
	for c := ncells; c > 0; c-- {
		g.starts[c] = g.starts[c-1]
	}
	g.starts[0] = 0
}

// cellOf returns the flat cell index of p (which must be inside the
// indexed bounding box).
func (g *PointGrid) cellOf(p Vec3) int {
	x := int((p.X - g.min.X) * g.inv)
	y := int((p.Y - g.min.Y) * g.inv)
	z := int((p.Z - g.min.Z) * g.inv)
	// Points on the bbox max face land one past the last cell; clamp.
	if x >= g.nx {
		x = g.nx - 1
	}
	if y >= g.ny {
		y = g.ny - 1
	}
	if z >= g.nz {
		z = g.nz - 1
	}
	return (x*g.ny+y)*g.nz + z
}

// WalkCells calls fn for every grid cell in flat index order (x-major,
// then y, then z — so consecutive calls are pencils of spatially adjacent
// cells) with the cell's bucketed point indices, ascending. Empty cells
// are visited too; the order and contents depend only on the Build inputs.
func (g *PointGrid) WalkCells(fn func(members []int32)) {
	ncells := g.nx * g.ny * g.nz
	for c := 0; c < ncells; c++ {
		fn(g.items[g.starts[c]:g.starts[c+1]])
	}
}
