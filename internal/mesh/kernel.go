package mesh

import (
	"repro/internal/graph"
)

// surfKernel is the traversal substrate one surface construction runs on:
// the group's induced subgraph as a compact CSR (every node a member, IDs
// [0, |group|) in ascending stable-ID order), one reusable BFS scratch, and
// the per-landmark shortest-path trees, grown on demand. Every
// hop-distance and shortest-path query of steps I–V goes through it, so
// every array it touches scales with the group, not the network.
//
// All mesh path queries are landmark-pair queries with the lower landmark
// ID as the source (mkEdge normalizes every candidate edge, and face
// corners are landmarks), so one tree per landmark covers buildCDM,
// triangulate, and the flip pass's corner MST. A tree is started on its
// landmark's first query and expanded only until the queried landmark is
// discovered; steps III–V only ask about nearby landmarks, so most trees
// stay a few cells deep. Paths extracted from the trees are bit-identical
// to graph.ShortestPath (see graph.SPT). The noSPT knob disables the trees
// (every query runs a fresh scratch BFS) so tests can prove that
// equivalence on whole surfaces.
type surfKernel struct {
	csr     *graph.CSR
	scratch graph.Scratch

	trees    []*graph.SPT // indexed by landmark ID; nil = not started
	treeRuns int64        // trees started
	hits     int64        // queries answered from a tree

	pathBuf []int // reusable extraction buffer; accepted paths are copied out
	noSPT   bool
}

func newSurfKernel(csr *graph.CSR, noSPT bool) *surfKernel {
	return &surfKernel{csr: csr, noSPT: noSPT}
}

// tree returns landmark lm's shortest-path tree, starting it on first
// use; nil when trees are disabled.
func (k *surfKernel) tree(lm int) *graph.SPT {
	if k.noSPT {
		return nil
	}
	if k.trees == nil {
		k.trees = make([]*graph.SPT, k.csr.Len())
	}
	t := k.trees[lm]
	if t == nil {
		t = graph.NewSPT(k.csr, lm, nil)
		k.trees[lm] = t
		k.treeRuns++
	}
	k.hits++
	return t
}

// path returns the deterministic shortest boundary path realizing edge e,
// nil when the landmarks are disconnected. The returned slice aliases the
// kernel's reusable buffer — valid only until the next path call; callers
// keep an accepted path with cdmResult.claim, which copies.
func (k *surfKernel) path(e Edge) []int {
	if t := k.tree(e[0]); t != nil {
		k.pathBuf = t.PathTo(e[1], k.pathBuf[:0])
	} else {
		k.pathBuf = k.csr.ShortestPath(&k.scratch, e[0], e[1], nil, k.pathBuf[:0])
	}
	if len(k.pathBuf) == 0 {
		return nil
	}
	return k.pathBuf
}

// dist returns the hop distance between landmarks a and b through the
// boundary subgraph, graph.Unreachable when disconnected.
func (k *surfKernel) dist(a, b int) int {
	if a > b {
		a, b = b, a
	}
	if t := k.tree(a); t != nil {
		return t.DistTo(b)
	}
	return k.csr.HopDistance(&k.scratch, a, b, nil)
}

// runs and visited total the traversal work the kernel performed: scratch
// searches plus every tree's growth so far.
func (k *surfKernel) runs() int64 { return k.scratch.Runs + k.treeRuns }

func (k *surfKernel) visited() int64 {
	v := k.scratch.Visited
	for _, t := range k.trees {
		if t != nil {
			v += int64(len(t.Reached()))
		}
	}
	return v
}

// groupCompactor holds the scratch for re-indexing one group's induced
// subgraph into a compact CSR, reused across builds. rowPtr/col are aliased
// by the CSR it returns, so a compactor serves one build at a time.
type groupCompactor struct {
	member graph.NodeSet
	s2c    []int32 // stable → compact, valid only at member indices
	rowPtr []int32
	col    []int32
}

// compactGroup builds the induced subgraph of members (ascending,
// duplicate-free node IDs below n) as a CSR over [0, len(members)) under
// the monotone renaming members[i] → i. Neighbor rows keep their stored
// order with non-members dropped — exactly the scan order a whole-network
// traversal filtered by membership sees.
func compactGroup[T int | int32](c *groupCompactor, n int, members []int, neighbors func(int) []T) (*graph.CSR, error) {
	member := &c.member
	member.Reset(n)
	for _, v := range members {
		member.Add(v)
	}
	if cap(c.s2c) < n {
		c.s2c = make([]int32, n)
	}
	s2c := c.s2c[:n]
	for i, v := range members {
		s2c[v] = int32(i)
	}
	rowPtr := append(c.rowPtr[:0], 0)
	col := c.col[:0]
	for _, v := range members {
		for _, x := range neighbors(v) {
			if member.Has(int(x)) {
				col = append(col, s2c[x])
			}
		}
		rowPtr = append(rowPtr, int32(len(col)))
	}
	c.rowPtr, c.col = rowPtr, col
	return graph.NewCSRFromParts(rowPtr, col)
}
