package mesh

import (
	"sort"
)

// Edge is an undirected landmark pair, stored with Edge[0] < Edge[1].
type Edge [2]int

// mkEdge normalizes an edge.
func mkEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{a, b}
}

// buildCDG computes the Combinatorial Delaunay Graph: landmarks are
// adjacent when some boundary node of one Voronoi cell has a one-hop
// neighbor in the other's cell (step II). Edges are returned sorted.
func buildCDG(kn *surfKernel, lms *Landmarks) []Edge {
	seen := make(map[Edge]bool)
	var edges []Edge
	for u := 0; u < kn.csr.Len(); u++ {
		for _, v := range kn.csr.Neighbors(u) {
			if lms.Assoc[u] == lms.Assoc[v] {
				continue
			}
			e := mkEdge(lms.Assoc[u], lms.Assoc[v])
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	}
	sortEdges(edges)
	return edges
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
}

// cdmResult carries the planarized subgraph and its path bookkeeping.
type cdmResult struct {
	edges []Edge
	// pathEdges records, per boundary node, the virtual edges whose
	// accepted shortest path runs through it; step IV's connection
	// packets are dropped at nodes carrying a virtual edge disjoint from
	// the packet's own landmark pair (two edges sharing an endpoint
	// cannot cross, so those do not block).
	pathEdges map[int][]Edge
	// paths records the accepted realization of each virtual edge.
	paths map[Edge][]int
}

// claim records that edge e's path runs through every node of path. The
// path is copied: accepted realizations outlive the kernel's reusable
// extraction buffer.
func (r *cdmResult) claim(e Edge, path []int) {
	owned := append([]int(nil), path...)
	r.paths[e] = owned
	for _, u := range owned {
		r.pathEdges[u] = append(r.pathEdges[u], e)
	}
}

// blocks reports whether node u carries a virtual edge disjoint from the
// landmark pair (i, j) — the crossing-avoidance drop condition.
func (r *cdmResult) blocks(u, i, j int) bool {
	for _, e := range r.pathEdges[u] {
		if e[0] != i && e[0] != j && e[1] != i && e[1] != j {
			return true
		}
	}
	return false
}

// buildCDM filters CDG edges with the Funke–Milosavljević test (step III):
// the landmark pair keeps its edge iff the shortest boundary path between
// them visits only nodes associated with the two landmarks, first all of
// one's, then all of the other's, with no interleaving. The resulting
// Combinatorial Delaunay Map is planar on the boundary surface.
func buildCDM(kn *surfKernel, lms *Landmarks, cdg []Edge) cdmResult {
	res := cdmResult{
		pathEdges: make(map[int][]Edge),
		paths:     make(map[Edge][]int),
	}
	for _, e := range cdg {
		path := kn.path(e)
		if path == nil || !pathNonInterleaved(path, lms.Assoc, e[0], e[1]) {
			continue
		}
		res.edges = append(res.edges, e)
		res.claim(e, path)
	}
	return res
}

// pathNonInterleaved checks the CDM acceptance condition: every node on the
// path belongs to landmark i or j, as a run of i-associated nodes followed
// by a run of j-associated nodes.
func pathNonInterleaved(path []int, assoc []int, i, j int) bool {
	// The path starts at landmark i, so the first run must be i's.
	first, second := i, j
	if len(path) > 0 && assoc[path[0]] == j {
		first, second = j, i
	}
	switched := false
	for _, u := range path {
		a := assoc[u]
		switch {
		case a == first && !switched:
			// still in the first run
		case a == second:
			switched = true
		case a == first && switched:
			return false // interleaving: back to the first landmark's run
		default:
			return false // foreign cell on the path
		}
	}
	return true
}

// triangulate performs step IV: route a connection packet along the
// shortest boundary path for every not-yet-connected nearby landmark pair;
// the packet is dropped at any intermediate node already carrying a virtual
// edge disjoint from the pair (crossing avoidance); otherwise the edge is
// added to fg and its path nodes claimed. It returns the number of edges
// added.
//
// Candidates are the unconnected CDG pairs plus the pairs at distance two
// in the CDG (landmarks sharing a CDG neighbor): when four or more Voronoi
// cells meet around a corner, the CDM leaves a polygon whose diagonals
// connect cells that are not edge-adjacent, so restricting to CDG pairs
// could never split those polygons into triangles. Candidates are processed
// shortest-realization first, ties broken lexicographically, making the
// greedy fill deterministic.
func triangulate(kn *surfKernel, cdg []Edge, cdm *cdmResult, fg *faceGraph, forbidden map[Edge]bool) int {
	var cornerBuf []int

	// tryAdd accepts a candidate edge when it was never retired by a
	// flip, its realization is not blocked by a crossing path, and every
	// triangle it completes keeps all involved edges within the two-face
	// budget.
	tryAdd := func(e Edge) bool {
		if fg.has(e) || forbidden[e] {
			return false
		}
		corners := fg.common(e[0], e[1], cornerBuf[:0])
		cornerBuf = corners
		if len(corners) == 0 || len(corners) > 2 {
			return false
		}
		for _, c := range corners {
			if fg.faces[mkEdge(e[0], c)]+1 > 2 || fg.faces[mkEdge(e[1], c)]+1 > 2 {
				return false
			}
		}
		path := kn.path(e)
		if path == nil {
			return false
		}
		for _, u := range path[1 : len(path)-1] {
			if cdm.blocks(u, e[0], e[1]) {
				return false
			}
		}
		fg.add(e)
		cdm.claim(e, path)
		return true
	}

	added := 0
	// Pass 1: unconnected CDG pairs (cell-adjacent landmarks), the
	// paper's candidates, in sorted order.
	for _, e := range cdg {
		if tryAdd(e) {
			added++
		}
	}
	// Pass 2 (iterated to a fixpoint): pairs at distance two in the
	// current overlay — the polygon diagonals. When four or more Voronoi
	// cells meet around a corner the CDM leaves a polygon whose
	// diagonals connect cells that are not edge-adjacent, so CDG pairs
	// alone can never finish the triangulation. Each round snapshots the
	// vertex list once and each visited vertex's neighbor list at visit
	// time (edges added mid-round join the scan next round, exactly as
	// the rebuild-from-scratch version behaved).
	var verts, nbrsSnap []int
	for {
		progress := false
		verts = append(verts[:0], fg.verts...)
		for _, mid := range verts {
			nbrsSnap = append(nbrsSnap[:0], fg.nbrs[mid]...)
			for x := 0; x < len(nbrsSnap); x++ {
				for y := x + 1; y < len(nbrsSnap); y++ {
					e := mkEdge(nbrsSnap[x], nbrsSnap[y])
					if tryAdd(e) {
						added++
						progress = true
					}
				}
			}
		}
		if !progress {
			break
		}
	}
	return added
}
