package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func randPoints(rng *rand.Rand, n int, spread float64) []Vec3 {
	pts := make([]Vec3, n)
	for i := range pts {
		pts[i] = V(rng.Float64()*spread-spread/2,
			rng.Float64()*spread-spread/2,
			rng.Float64()*spread-spread/2)
	}
	return pts
}

// walk collects the grid's cells in WalkCells order.
func walk(g *PointGrid) [][]int32 {
	var cells [][]int32
	g.WalkCells(func(members []int32) { cells = append(cells, members) })
	return cells
}

// TestPointGridCellsPartitionThePoints: WalkCells visits every point
// exactly once, in ascending index order within a cell, and each point
// lies inside the cube of the cell it is bucketed in.
func TestPointGridCellsPartitionThePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 300, 5)
	var g PointGrid
	g.Build(pts, 0.7)
	seen := make([]int, len(pts))
	for c, members := range walk(&g) {
		x, y, z := c/(g.ny*g.nz), c/g.nz%g.ny, c%g.nz
		box := AABB{
			Min: g.min.Add(V(float64(x)*g.cell, float64(y)*g.cell, float64(z)*g.cell)),
			Max: g.min.Add(V(float64(x+1)*g.cell, float64(y+1)*g.cell, float64(z+1)*g.cell)),
		}
		for i, n := range members {
			seen[n]++
			if i > 0 && members[i-1] >= n {
				t.Fatalf("cell %d members not ascending: %v", c, members)
			}
			if !box.Contains(pts[n]) {
				t.Fatalf("point %d bucketed outside its cell", n)
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("point %d appears in %d cells", i, c)
		}
	}
}

// TestPointGridMatchesBruteForce: over random inputs and cell sizes, each
// walked cell holds exactly the points a brute-force scan places in it by
// flooring their offsets from the grid origin (clamped on the far faces).
func TestPointGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		spread := 0.1 + rng.Float64()*20
		pts := randPoints(rng, n, spread)
		var g PointGrid
		g.Build(pts, 0.05+rng.Float64()*spread)
		cells := walk(&g)
		if len(cells) != g.nx*g.ny*g.nz {
			t.Fatalf("trial %d: walked %d cells of %d", trial, len(cells), g.nx*g.ny*g.nz)
		}
		want := make([][]int32, len(cells))
		for i, p := range pts {
			at := func(v, lo float64, dim int) int {
				return min(int(math.Floor((v-lo)/g.cell)), dim-1)
			}
			c := (at(p.X, g.min.X, g.nx)*g.ny+at(p.Y, g.min.Y, g.ny))*g.nz + at(p.Z, g.min.Z, g.nz)
			want[c] = append(want[c], int32(i))
		}
		for c := range cells {
			if !slices.Equal(cells[c], want[c]) {
				t.Fatalf("trial %d cell %d: walked %v, brute force %v", trial, c, cells[c], want[c])
			}
		}
	}
}

func TestPointGridEmptyAndDegenerate(t *testing.T) {
	var g PointGrid
	g.Build(nil, 1)
	if cells := walk(&g); len(cells) != 0 {
		t.Errorf("empty build walks %d cells", len(cells))
	}
	// All points coincident: one cell, all indexed.
	pts := []Vec3{V(1, 1, 1), V(1, 1, 1), V(1, 1, 1)}
	g.Build(pts, 0.5)
	if cells := walk(&g); len(cells) != 1 || len(cells[0]) != 3 {
		t.Errorf("coincident points: got %v", cells)
	}
}

// The cell-size guard must keep memory bounded for spread-out inputs.
func TestPointGridCellBlowupGuard(t *testing.T) {
	pts := []Vec3{V(0, 0, 0), V(1e6, 1e6, 1e6)}
	var g PointGrid
	g.Build(pts, 1e-3) // naive grid would want 10^27 cells
	if cells := len(g.starts) - 1; cells > maxCellsFactor*len(pts)+64 {
		t.Fatalf("cell array not bounded: %d cells", cells)
	}
	// Coarsened cells still bucket each point exactly once: the two
	// corners land in the first and the last cell.
	cells := walk(&g)
	if first, last := cells[0], cells[len(cells)-1]; len(first) != 1 || first[0] != 0 || len(last) != 1 || last[0] != 1 {
		t.Errorf("walk after coarsening: first %v, last %v", first, last)
	}
}

// Rebuilding with same-magnitude input must not allocate: Build reuses
// the previous CSR buffers.
func TestPointGridRebuildDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 120, 4)
	var g PointGrid
	g.Build(pts, 0.5) // warm capacity
	allocs := testing.AllocsPerRun(100, func() {
		g.Build(pts, 0.5)
	})
	if allocs != 0 {
		t.Errorf("rebuild allocates %.1f times per run", allocs)
	}
}
