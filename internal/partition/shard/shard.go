// Package shard is the deployment-volume side of partitioning: where the
// parent package's Patches splits a *reconstructed boundary* for routing
// and aggregation, a Sharding splits the *raw node set* spatially so
// detection's per-node stages (frames and UBF, Sec. II of the paper) can
// run shard-parallel. Because they are localized — every verdict depends
// on a bounded-hop neighborhood only — a shard plus a bounded ghost halo
// sees everything its owned nodes need, and the sharded schedule
// (internal/core) reproduces the unsharded result bit for bit.
//
// The package lives below internal/partition but imports only geom and
// graph: the detection engine must be able to depend on it, and partition
// proper depends on mesh, which sits above detection.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
)

// Sharding is a spatial partition of a node set into K shards. Shards are
// built from contiguous runs of spatial-grid cells, so each shard is a
// compact region of the deployment volume and its ghost halo stays small
// relative to its interior.
type Sharding struct {
	// K is the shard count. Shards may be empty when K exceeds the number
	// of populated grid cells.
	K int
	// Owner maps each node to its shard in [0, K).
	Owner []int32
	// Owned lists each shard's nodes in ascending ID order.
	Owned [][]int
}

// ErrBadShards is returned for a non-positive shard count.
var ErrBadShards = fmt.Errorf("partition: shard count must be >= 1")

// targetCellsPerShard sizes the spatial grid for shard assignment: enough
// cells per shard that the balanced prefix cut lands close to n/K nodes,
// few enough that cells stay well populated.
const targetCellsPerShard = 64

// Spatial partitions the given positions into k spatial shards. Cells of a
// uniform grid (geom.PointGrid) are walked in flat index order — contiguous
// pencils along the innermost axis, so consecutive cells are spatial
// neighbors — and cut into k runs of near-equal node count. The result is a
// pure function of the positions and k: independent of traversal order,
// worker count, and map iteration.
func Spatial(pos []geom.Vec3, k int) (*Sharding, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadShards, k)
	}
	s := &Sharding{K: k, Owner: make([]int32, len(pos)), Owned: make([][]int, k)}
	if len(pos) == 0 {
		return s, nil
	}
	if k == 1 {
		owned := make([]int, len(pos))
		for i := range owned {
			owned[i] = i
		}
		s.Owned[0] = owned
		return s, nil
	}

	// Grid resolution: ~targetCellsPerShard populated-volume cells per
	// shard. PointGrid grows the cell when the spread would explode the
	// cell array, so the choice here is a target, not a guarantee.
	box := geom.BoundingBox(pos)
	size := box.Size()
	longest := size.X
	if size.Y > longest {
		longest = size.Y
	}
	if size.Z > longest {
		longest = size.Z
	}
	perAxis := 1
	for perAxis*perAxis*perAxis < k*targetCellsPerShard {
		perAxis++
	}
	cell := longest / float64(perAxis)
	if cell <= 0 { // all positions coincide
		cell = 1
	}
	var grid geom.PointGrid
	grid.Build(pos, cell)

	// Walk the cells in flat index order and cut the node stream into k
	// balanced prefixes: cell c goes to shard s while the running count
	// stays below the s-th quantile of n.
	n := len(pos)
	assigned, shard := 0, 0
	grid.WalkCells(func(members []int32) {
		if len(members) == 0 {
			return
		}
		for shard < k-1 && assigned*k >= n*(shard+1) {
			shard++
		}
		for _, m := range members {
			s.Owner[m] = int32(shard)
		}
		assigned += len(members)
	})
	for i := 0; i < n; i++ {
		o := s.Owner[i]
		s.Owned[o] = append(s.Owned[o], i)
	}
	return s, nil
}

// OwnedCount returns the number of nodes shard owns.
func (s *Sharding) OwnedCount(shard int) int { return len(s.Owned[shard]) }

// ViewNodes returns one shard's view of the graph: its owned nodes plus
// the ghost halo out to the given hop depth over the subgraph induced by
// allowed (nil = every node), ascending by ID, together with each view
// node's hop distance from the owned set (0 = owned, 1..depth = ghost).
// sc supplies reusable BFS scratch; results are appended to fresh slices.
//
// Detection phases read only bounded-hop neighborhoods of owned nodes, so
// a view at the right depth contains everything a shard needs: depth 2
// covers two-hop Unit Ball Fitting knowledge (coordinates of the frames'
// frames), depth T covers the TTL-T flood of Isolated Fragment Filtering.
func (s *Sharding) ViewNodes(c *graph.CSR, shard, depth int, allowed *graph.NodeSet, sc *graph.Scratch) (nodes []int32, dist []int8) {
	c.BFSHops(sc, s.Owned[shard], allowed, depth)
	reached := sc.Reached()
	nodes = make([]int32, len(reached))
	copy(nodes, reached)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	dist = make([]int8, len(nodes))
	for i, v := range nodes {
		dist[i] = int8(sc.Dist(int(v)))
	}
	return nodes, dist
}

// Halo returns just the ghost portion of ViewNodes: the nodes within depth
// hops of the shard's owned set (over the allowed-induced subgraph) that
// the shard does not own, ascending. The property tests quick-check this
// set against the engine's locality requirements.
func (s *Sharding) Halo(c *graph.CSR, shard, depth int, allowed *graph.NodeSet, sc *graph.Scratch) []int {
	nodes, dist := s.ViewNodes(c, shard, depth, allowed, sc)
	ghosts := make([]int, 0, len(nodes))
	for i, v := range nodes {
		if dist[i] > 0 {
			ghosts = append(ghosts, int(v))
		}
	}
	return ghosts
}

// Balance reports the largest shard's owned count relative to the mean —
// the load-imbalance factor of the spatial cut (1.0 = perfect).
func (s *Sharding) Balance() float64 {
	if s.K == 0 || len(s.Owner) == 0 {
		return 0
	}
	max := 0
	for _, owned := range s.Owned {
		if len(owned) > max {
			max = len(owned)
		}
	}
	mean := float64(len(s.Owner)) / float64(s.K)
	return float64(max) / mean
}
