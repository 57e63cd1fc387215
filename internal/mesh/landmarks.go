// Package mesh constructs locally planarized triangular boundary surfaces
// from identified boundary nodes — Sec. III of the paper. The five steps:
//
//  1. landmark election, k hops apart, with every boundary node associated
//     to its closest landmark (approximate Voronoi cells);
//  2. the Combinatorial Delaunay Graph (CDG): neighboring landmarks, the
//     dual of the Voronoi cells — generally non-planar;
//  3. the Combinatorial Delaunay Map (CDM): the CDG filtered by the
//     non-interleaving shortest-path test of Funke & Milosavljević, which
//     provably yields a planar subgraph;
//  4. triangulation: additional non-crossing virtual edges split remaining
//     polygons into triangles;
//  5. edge flip: edges bordering three triangles are replaced so every
//     edge borders at most two — a locally planarized 2-manifold.
//
// All steps operate on the boundary subgraph with hop counts only
// (connectivity-based, no coordinates), exactly as in the paper.
package mesh

import (
	"errors"
	"sort"

	"repro/internal/graph"
)

// ErrBadK is returned when the landmark spacing is not positive.
var ErrBadK = errors.New("mesh: landmark spacing k must be >= 1")

// NoLandmark marks boundary nodes with no reachable landmark and
// non-boundary nodes in association tables.
const NoLandmark = -1

// Landmarks holds the election outcome for one boundary group.
type Landmarks struct {
	// IDs lists the elected landmark node IDs, ascending.
	IDs []int
	// Assoc maps every node to its landmark's node ID (NoLandmark for
	// nodes outside the boundary group). Ties in hop distance break
	// toward the smaller landmark ID, as the paper prescribes.
	Assoc []int
	// Hops is each node's hop distance to its landmark (through
	// boundary nodes only); Unreachable outside the group.
	Hops []int
}

// ElectLandmarks picks a k-hop-separated landmark subset of one boundary
// group and associates every group member with its closest landmark.
//
// The election is the deterministic lowest-ID greedy rule on the k-hop
// power graph: a node becomes a landmark unless a smaller-ID landmark
// already exists within k hops. This is the outcome of the standard
// distributed lowest-ID maximal-independent-set election the paper cites
// (GLIDER's landmark selection), computed here directly.
func ElectLandmarks(g *graph.Graph, group []int, k int) (*Landmarks, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	members := sortedMembers(group)
	csr, err := compactGroup(&groupCompactor{}, g.Len(), members, func(v int) []int { return g.Adj[v] })
	if err != nil {
		return nil, err
	}
	lms, err := electLandmarks(newSurfKernel(csr, true), k)
	if err != nil {
		return nil, err
	}
	renameLandmarks(lms, members, g.Len())
	return lms, nil
}

// electLandmarks runs step I on a compact group kernel (every node of the
// CSR a member). The greedy election scans candidates in ascending ID
// order with one k-hop search per winner.
//
// Association is one multi-source BFS seeded with every landmark — the
// Voronoi flood. Hops is the BFS layer, the distance to the nearest
// landmark. A node's owner is the smallest owner among its parents in the
// previous layer: every landmark at the minimum distance d from u reaches
// u through some neighbor at distance d−1, whose own owner is the smallest
// landmark at that distance from it. So the owner is the (hops,
// landmark-ID) minimum the paper's closest-landmark rule asks for, and the
// whole association costs one traversal of the group.
func electLandmarks(kn *surfKernel, k int) (*Landmarks, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	m := kn.csr.Len()
	covered := make([]bool, m)
	var ids []int
	src := make([]int, 1)
	for v := 0; v < m; v++ {
		if covered[v] {
			continue
		}
		ids = append(ids, v)
		src[0] = v
		kn.csr.BFSHops(&kn.scratch, src, nil, k)
		for _, u := range kn.scratch.Reached() {
			covered[u] = true
		}
	}

	assoc := make([]int, m)
	hops := make([]int, m)
	for i := range assoc {
		assoc[i] = NoLandmark
		hops[i] = graph.Unreachable
	}
	kn.csr.BFSHops(&kn.scratch, ids, nil, -1)
	for _, u32 := range kn.scratch.Reached() {
		u := int(u32)
		d := kn.scratch.Dist(u)
		hops[u] = d
		if d == 0 {
			assoc[u] = u
			continue
		}
		// Parents were all placed before u: BFS order is layer order.
		owner := NoLandmark
		for _, p := range kn.csr.Neighbors(u) {
			if hops[p] == d-1 && (owner == NoLandmark || assoc[p] < owner) {
				owner = assoc[p]
			}
		}
		assoc[u] = owner
	}
	return &Landmarks{IDs: ids, Assoc: assoc, Hops: hops}, nil
}

// sortedMembers returns group ascending and duplicate-free — the member
// order that defines a group's compact IDs.
func sortedMembers(group []int) []int {
	members := append([]int(nil), group...)
	sort.Ints(members)
	w := 0
	for i, v := range members {
		if i == 0 || v != members[i-1] {
			members[w] = v
			w++
		}
	}
	return members[:w]
}

// renameLandmarks maps a compact-space election back to stable IDs in
// place, widening Assoc and Hops to the universe [0, universe).
func renameLandmarks(l *Landmarks, members []int, universe int) {
	for i, lm := range l.IDs {
		l.IDs[i] = members[lm]
	}
	assoc := make([]int, universe)
	hops := make([]int, universe)
	for i := range assoc {
		assoc[i] = NoLandmark
		hops[i] = graph.Unreachable
	}
	for i, a := range l.Assoc {
		if a != NoLandmark {
			assoc[members[i]] = members[a]
			hops[members[i]] = l.Hops[i]
		}
	}
	l.Assoc = assoc
	l.Hops = hops
}
