package mesh

import (
	"sort"

	"repro/internal/graph"
)

// Face is a triangle of landmark IDs, stored ascending.
type Face [3]int

// faceGraph is the virtual-edge graph of steps IV and V with its triangle
// bookkeeping kept current under every edge insertion and removal: sorted
// adjacency slices, the number of triangles through each edge (the common
// neighbors of its endpoints), and the set of over-shared edges (three or
// more triangles). Adding an edge adds one triangle per common neighbor of
// its endpoints; removing one drops the triangles through it. Neither
// re-sorts or re-enumerates the mesh, which is what used to dominate the
// fill and flip passes on dense meshes.
type faceGraph struct {
	verts []int         // sorted list of every vertex ever linked
	nbrs  map[int][]int // sorted neighbor lists
	faces map[Edge]int  // every present edge → triangles through it
	over  map[Edge]bool // present edges bordering three or more triangles
	buf   []int
}

func newFaceGraph(edges []Edge) *faceGraph {
	fg := &faceGraph{
		nbrs:  make(map[int][]int),
		faces: make(map[Edge]int, len(edges)),
		over:  make(map[Edge]bool),
	}
	for _, e := range edges {
		fg.add(e)
	}
	return fg
}

func (fg *faceGraph) has(e Edge) bool {
	_, ok := fg.faces[e]
	return ok
}

// shift moves edge e's triangle count by delta and refiles it.
func (fg *faceGraph) shift(e Edge, delta int) {
	n := fg.faces[e] + delta
	fg.faces[e] = n
	if n >= 3 {
		fg.over[e] = true
	} else {
		delete(fg.over, e)
	}
}

// add inserts edge e (no-op when present) with the triangles it closes.
func (fg *faceGraph) add(e Edge) {
	if fg.has(e) {
		return
	}
	fg.buf = fg.common(e[0], e[1], fg.buf[:0])
	for _, c := range fg.buf {
		fg.shift(mkEdge(e[0], c), 1)
		fg.shift(mkEdge(e[1], c), 1)
	}
	fg.faces[e] = 0
	fg.shift(e, len(fg.buf))
	fg.link(e)
}

// remove deletes edge e and the triangles through it.
func (fg *faceGraph) remove(e Edge) {
	fg.unlink(e)
	delete(fg.faces, e)
	delete(fg.over, e)
	fg.buf = fg.common(e[0], e[1], fg.buf[:0])
	for _, c := range fg.buf {
		fg.shift(mkEdge(e[0], c), -1)
		fg.shift(mkEdge(e[1], c), -1)
	}
}

// insertSorted inserts v into sorted slice s if absent.
func insertSorted(s []int, v int) []int {
	at := sort.SearchInts(s, v)
	if at < len(s) && s[at] == v {
		return s
	}
	s = append(s, 0)
	copy(s[at+1:], s[at:])
	s[at] = v
	return s
}

func (fg *faceGraph) link(e Edge) {
	if _, ok := fg.nbrs[e[0]]; !ok {
		fg.verts = insertSorted(fg.verts, e[0])
	}
	if _, ok := fg.nbrs[e[1]]; !ok {
		fg.verts = insertSorted(fg.verts, e[1])
	}
	fg.nbrs[e[0]] = insertSorted(fg.nbrs[e[0]], e[1])
	fg.nbrs[e[1]] = insertSorted(fg.nbrs[e[1]], e[0])
}

// unlink removes edge e. Its endpoints stay in verts; a vertex left
// without neighbors contributes no candidate pairs to the fill.
func (fg *faceGraph) unlink(e Edge) {
	fg.nbrs[e[0]] = removeSorted(fg.nbrs[e[0]], e[1])
	fg.nbrs[e[1]] = removeSorted(fg.nbrs[e[1]], e[0])
}

// removeSorted deletes v from sorted slice s if present.
func removeSorted(s []int, v int) []int {
	at := sort.SearchInts(s, v)
	if at == len(s) || s[at] != v {
		return s
	}
	return append(s[:at], s[at+1:]...)
}

// common intersects two sorted neighbor lists, appending into out
// (ascending — the deterministic corner order the fill relies on).
func (fg *faceGraph) common(a, b int, out []int) []int {
	na, nb := fg.nbrs[a], fg.nbrs[b]
	i, j := 0, 0
	for i < len(na) && j < len(nb) {
		switch {
		case na[i] < nb[j]:
			i++
		case na[i] > nb[j]:
			j++
		default:
			out = append(out, na[i])
			i++
			j++
		}
	}
	return out
}

// worst returns the smallest over-shared edge, if any.
func (fg *faceGraph) worst() (Edge, bool) {
	var bad Edge
	found := false
	for e := range fg.over {
		if !found || e[0] < bad[0] || (e[0] == bad[0] && e[1] < bad[1]) {
			bad, found = e, true
		}
	}
	return bad, found
}

// edges returns the present edges, sorted.
func (fg *faceGraph) edges() []Edge {
	out := make([]Edge, 0, len(fg.faces))
	for e := range fg.faces {
		out = append(out, e)
	}
	sortEdges(out)
	return out
}

// faceList returns every triangle once, sorted: each face (a, b, c) with
// a < b < c is found from its smallest edge (a, b) and its largest corner.
func (fg *faceGraph) faceList() []Face {
	var faces []Face
	for _, e := range fg.edges() {
		fg.buf = fg.common(e[0], e[1], fg.buf[:0])
		for _, c := range fg.buf {
			if c > e[1] {
				faces = append(faces, Face{e[0], e[1], c})
			}
		}
	}
	return faces
}

// enumerateFaces lists the 3-cliques of the virtual-edge graph — the
// triangular faces of the mesh — sorted.
func enumerateFaces(edges []Edge) []Face {
	return newFaceGraph(edges).faceList()
}

// faceCorners maps each edge to the third vertices of its incident faces.
func faceCorners(faces []Face) map[Edge][]int {
	corners := make(map[Edge][]int)
	for _, f := range faces {
		corners[mkEdge(f[0], f[1])] = append(corners[mkEdge(f[0], f[1])], f[2])
		corners[mkEdge(f[0], f[2])] = append(corners[mkEdge(f[0], f[2])], f[1])
		corners[mkEdge(f[1], f[2])] = append(corners[mkEdge(f[1], f[2])], f[0])
	}
	return corners
}

// flipEdges performs step V: while some edge borders three or more
// triangles, remove it and reconnect the triangles' far corners with their
// shortest mutual edges (hop distance through the boundary subgraph). For
// the paper's three-face case this adds the two shortest of the three
// corner pairs — removing the over-shared edge AB and replacing it with,
// e.g., CD and DE (Fig. 5); the general rule is the corners' minimum
// spanning tree, which coincides with the paper's rule at three corners.
// maxIter bounds the loop.
//
// Returns the final edge set and the number of flips applied.
func flipEdges(g *graph.Graph, member func(int) bool, edges []Edge, maxIter int) ([]Edge, int) {
	fg := newFaceGraph(edges)
	dist := func(a, b int) int { return g.HopDistance(a, b, member) }
	flips := flipPass(dist, fg, make(map[Edge]bool), maxIter)
	return fg.edges(), flips
}

// flipPass flips fg in place, marking every retired edge in removed.
// Monotonicity — an edge in removed is never re-added, here or by later
// triangulation passes — guarantees termination and prevents the
// oscillation a naive flip loop exhibits. dist measures landmark hop
// distance through the boundary subgraph (the surface pipeline answers it
// from the landmark's shortest-path tree; the flipEdges wrapper falls back
// to a fresh BFS per pair). Each flip picks the smallest over-shared edge,
// so the sequence is a deterministic serial fixpoint.
func flipPass(dist func(a, b int) int, fg *faceGraph, removed map[Edge]bool, maxIter int) int {
	flips := 0
	for iter := 0; iter < maxIter; iter++ {
		bad, ok := fg.worst()
		if !ok {
			return flips
		}
		// The far corners, ascending: the common neighbors of the
		// over-shared edge's endpoints.
		cs := fg.common(bad[0], bad[1], nil)
		fg.remove(bad)
		removed[bad] = true
		flips++
		// Connect the far corners by their hop-distance MST.
		for _, e := range cornerMST(dist, cs) {
			if !removed[e] {
				fg.add(e)
			}
		}
	}
	return flips
}

// cornerMST returns the minimum-spanning-tree edges over the given corner
// landmarks, weighted by hop distance through the boundary subgraph
// (unreachable pairs get a large finite weight so the tree still spans).
func cornerMST(dist func(a, b int) int, corners []int) []Edge {
	n := len(corners)
	if n < 2 {
		return nil
	}
	const unreachableWeight = 1 << 30
	weight := func(a, b int) int {
		d := dist(corners[a], corners[b])
		if d == graph.Unreachable {
			return unreachableWeight
		}
		return d
	}
	inTree := make([]bool, n)
	bestW := make([]int, n)
	bestTo := make([]int, n)
	for i := range bestW {
		bestW[i] = unreachableWeight + 1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		bestW[j] = weight(0, j)
		bestTo[j] = 0
	}
	var out []Edge
	for added := 1; added < n; added++ {
		pick := -1
		for j := 0; j < n; j++ {
			if !inTree[j] && (pick == -1 || bestW[j] < bestW[pick]) {
				pick = j
			}
		}
		inTree[pick] = true
		out = append(out, mkEdge(corners[bestTo[pick]], corners[pick]))
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if w := weight(pick, j); w < bestW[j] {
					bestW[j] = w
					bestTo[j] = pick
				}
			}
		}
	}
	sortEdges(out)
	return out
}
