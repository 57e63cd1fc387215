package graph

// This file is the graph package's hot-path kernel: a compressed-sparse-row
// snapshot of a Graph (CSR), bitset node filters (NodeSet) replacing
// func(int) bool closures, reusable breadth-first-search scratch (Scratch)
// with epoch-stamped visited marks, and on-demand shortest-path trees (SPT)
// from which any root-to-node path extracts in O(path length).
//
// Everything here preserves the deterministic expansion rule of
// Graph.ShortestPath — FIFO frontier, neighbors scanned in stored adjacency
// order — so paths extracted from a CSR traversal or an SPT are
// bit-identical to the slice-adjacency implementation. The CDM construction
// (internal/mesh) relies on all nodes agreeing on "the" shortest path, and
// the differential tests rely on exact equality across representations.

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed-sparse-row snapshot of a graph: every adjacency list
// packed into one backing array. Neighbor order is preserved exactly as in
// the source, because the deterministic-path guarantee depends on the scan
// order. A CSR is immutable once built and safe for concurrent traversals
// (each with its own Scratch).
type CSR struct {
	rowPtr []int32
	col    []int32
}

// NewCSR snapshots g. Adjacency order is copied verbatim.
func NewCSR(g *Graph) *CSR {
	n := len(g.Adj)
	c := &CSR{rowPtr: make([]int32, n+1)}
	total := 0
	for i, nbrs := range g.Adj {
		c.rowPtr[i] = int32(total)
		total += len(nbrs)
	}
	c.rowPtr[n] = int32(total)
	c.col = make([]int32, total)
	k := 0
	for _, nbrs := range g.Adj {
		for _, v := range nbrs {
			c.col[k] = int32(v)
			k++
		}
	}
	return c
}

// ErrEdgeOutOfRange is returned by NewCSRFromEdges for an endpoint outside
// [0, n).
var ErrEdgeOutOfRange = errors.New("graph: edge endpoint out of range")

// NewCSRFromEdges builds a normalized CSR over n nodes from an arbitrary
// undirected edge list: duplicate edges collapse, self-loops are dropped,
// and every adjacency row comes out sorted ascending. Endpoints outside
// [0, n) are an error. Unlike NewCSR this does not mirror a Graph's stored
// order — it defines one (the sorted order every builder in this repo
// uses).
func NewCSRFromEdges(n int, edges [][2]int) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative node count %d", ErrEdgeOutOfRange, n)
	}
	deg := make([]int32, n+1)
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("%w: (%d,%d) with n=%d", ErrEdgeOutOfRange, e[0], e[1], n)
		}
		if e[0] == e[1] {
			continue
		}
		deg[e[0]]++
		deg[e[1]]++
	}
	c := &CSR{rowPtr: make([]int32, n+1)}
	var total int32
	for i := 0; i < n; i++ {
		c.rowPtr[i] = total
		total += deg[i]
	}
	c.rowPtr[n] = total
	c.col = make([]int32, total)
	fill := make([]int32, n)
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		c.col[c.rowPtr[e[0]]+fill[e[0]]] = int32(e[1])
		fill[e[0]]++
		c.col[c.rowPtr[e[1]]+fill[e[1]]] = int32(e[0])
		fill[e[1]]++
	}
	// Sort each row, then compact duplicates in place.
	w := int32(0)
	for i := 0; i < n; i++ {
		row := c.col[c.rowPtr[i]:c.rowPtr[i+1]]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		start := w
		for k, v := range row {
			if k > 0 && v == row[k-1] {
				continue
			}
			c.col[w] = v
			w++
		}
		c.rowPtr[i] = start
	}
	c.rowPtr[n] = w
	c.col = c.col[:w]
	return c, nil
}

// NewCSRFromParts adopts prebuilt row-pointer and column arrays as a CSR —
// the constructor for callers (the sharded detection engine) that assemble
// compacted subgraph views arc by arc and cannot afford the edge-list
// round-trip of NewCSRFromEdges. rowPtr must be monotone with rowPtr[0]==0
// and rowPtr[len-1]==len(col); col entries must lie in [0, len(rowPtr)-1).
// The slices are aliased, not copied; callers must not mutate them after.
func NewCSRFromParts(rowPtr, col []int32) (*CSR, error) {
	if len(rowPtr) == 0 {
		return nil, fmt.Errorf("graph: CSR needs at least one row pointer")
	}
	n := len(rowPtr) - 1
	if rowPtr[0] != 0 || int(rowPtr[n]) != len(col) {
		return nil, fmt.Errorf("graph: CSR row pointers do not frame the column array")
	}
	for i := 0; i < n; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("graph: CSR row %d has negative length", i)
		}
	}
	for _, v := range col {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: CSR neighbor %d out of range [0,%d)", v, n)
		}
	}
	return &CSR{rowPtr: rowPtr, col: col}, nil
}

// Len returns the number of nodes.
func (c *CSR) Len() int { return len(c.rowPtr) - 1 }

// NumEdges returns the number of stored directed arcs halved — the
// undirected edge count for a symmetric CSR.
func (c *CSR) NumEdges() int { return len(c.col) / 2 }

// Neighbors returns node u's adjacency row. Callers must not mutate it.
func (c *CSR) Neighbors(u int) []int32 { return c.col[c.rowPtr[u]:c.rowPtr[u+1]] }

// Degree returns the degree of node u.
func (c *CSR) Degree(u int) int { return int(c.rowPtr[u+1] - c.rowPtr[u]) }

// RowOffset returns the position in the flat arc (column) array where node
// u's adjacency row begins: Neighbors(u)[k] is arc RowOffset(u)+k.
func (c *CSR) RowOffset(u int) int { return int(c.rowPtr[u]) }

// ArcIndex returns the position of arc u→v in the flat arc (column) array
// and whether the arc exists, by binary search — rows must be ascending
// (true for every builder in this repo). The index is stable for the CSR's
// lifetime, so callers can address arc-parallel payload arrays with it
// (the flat measured-distance table of internal/core).
func (c *CSR) ArcIndex(u, v int) (int, bool) {
	row := c.col[c.rowPtr[u]:c.rowPtr[u+1]]
	k := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	if k < len(row) && row[k] == int32(v) {
		return int(c.rowPtr[u]) + k, true
	}
	return 0, false
}

// NodeSet is a bitset node filter — the hot-path replacement for the
// func(int) bool closures of BFSHops and friends. The zero value is an
// empty set. A nil *NodeSet passed to a traversal admits every node.
type NodeSet struct {
	words []uint64
}

// NewNodeSet returns an empty set with capacity for nodes [0, n).
func NewNodeSet(n int) *NodeSet {
	return &NodeSet{words: make([]uint64, (n+63)/64)}
}

// NodeSetOf builds a set holding exactly the indices marked true.
func NodeSetOf(member []bool) *NodeSet {
	s := NewNodeSet(len(member))
	for i, b := range member {
		if b {
			s.words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return s
}

// Reset clears the set and re-sizes it for nodes [0, n), reusing the
// backing array when possible.
func (s *NodeSet) Reset(n int) {
	w := (n + 63) / 64
	if cap(s.words) < w {
		s.words = make([]uint64, w)
		return
	}
	s.words = s.words[:w]
	for i := range s.words {
		s.words[i] = 0
	}
}

// Add inserts u; out-of-capacity or negative indices are ignored.
func (s *NodeSet) Add(u int) {
	if u >= 0 && u>>6 < len(s.words) {
		s.words[u>>6] |= 1 << (uint(u) & 63)
	}
}

// Has reports membership; indices outside the set's capacity are out.
func (s *NodeSet) Has(u int) bool {
	return u >= 0 && u>>6 < len(s.words) && s.words[u>>6]&(1<<(uint(u)&63)) != 0
}

// Remove deletes u; out-of-capacity or negative indices are ignored.
func (s *NodeSet) Remove(u int) {
	if u >= 0 && u>>6 < len(s.words) {
		s.words[u>>6] &^= 1 << (uint(u) & 63)
	}
}

// Grow extends the capacity to nodes [0, n), keeping the members.
func (s *NodeSet) Grow(n int) {
	for len(s.words) < (n+63)/64 {
		s.words = append(s.words, 0)
	}
}

// Count returns the number of members.
func (s *NodeSet) Count() int {
	total := 0
	for _, w := range s.words {
		for ; w != 0; w &= w - 1 {
			total++
		}
	}
	return total
}

// Func adapts the set to the closure-filter signature of the slice-backed
// traversals, for call sites bridging the two APIs.
func (s *NodeSet) Func() func(int) bool {
	if s == nil {
		return All
	}
	return s.Has
}

// Scratch is the reusable state of one traversal stream: distance and
// parent arrays, the FIFO frontier, and epoch-stamped visited marks, so a
// steady-state BFS allocates nothing (mirroring the UBFScratch pattern of
// internal/core). A Scratch serves one goroutine; traversals on the same
// CSR from different goroutines each need their own.
//
// Runs and Visited accumulate across calls — the substrate's work
// counters, exported by the mesh pipeline as the bfs_runs and
// bfs_nodes_visited observability counters.
type Scratch struct {
	dist   []int32
	parent []int32
	order  []int32 // visited nodes in expansion order; doubles as the queue
	mark   []uint32
	epoch  uint32

	// Runs counts traversals started, Visited the nodes they reached.
	Runs    int64
	Visited int64
}

// begin sizes the buffers for n nodes and opens a fresh epoch.
func (s *Scratch) begin(n int) {
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.dist = make([]int32, n)
		s.parent = make([]int32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: clear once and restart
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
	s.order = s.order[:0]
	s.Runs++
}

func (s *Scratch) seen(u int) bool { return s.mark[u] == s.epoch }

func (s *Scratch) visit(u int, d, parent int32) {
	s.mark[u] = s.epoch
	s.dist[u] = d
	s.parent[u] = parent
	s.order = append(s.order, int32(u))
}

// Dist returns u's hop distance from the last traversal's sources, or
// Unreachable when the traversal did not reach u (or u is out of range).
func (s *Scratch) Dist(u int) int {
	if u < 0 || u >= len(s.mark) || s.mark[u] != s.epoch {
		return Unreachable
	}
	return int(s.dist[u])
}

// Reached lists the nodes the last traversal visited, in deterministic
// expansion order. The slice aliases the scratch and is valid until the
// next traversal.
func (s *Scratch) Reached() []int32 { return s.order }

// Rows is the adjacency shape the traversals run over: a node universe
// [0, Len()) with one neighbor row per node. *CSR satisfies it, and so do
// detection's node table and its incremental engine's live stable-ID
// adjacency, so every breadth-first search runs the one expansion below.
type Rows interface {
	Len() int
	Neighbors(u int) []int32
}

// BFSHops runs a multi-source breadth-first search from sources over the
// subgraph of r induced by allowed (nil admits every node), out to at most
// maxHops (negative means unlimited). Results land in s: Reached lists the
// visited nodes in expansion order, Dist their hop distances. Sources
// rejected by allowed are ignored. The expansion is deterministic: FIFO
// frontier, neighbors in stored row order.
func BFSHops(r Rows, s *Scratch, sources []int, allowed *NodeSet, maxHops int) {
	n := r.Len()
	s.begin(n)
	for _, src := range sources {
		if src < 0 || src >= n || s.seen(src) {
			continue
		}
		if allowed != nil && !allowed.Has(src) {
			continue
		}
		s.visit(src, 0, Unreachable)
	}
	expand(r, s, allowed, maxHops, -1)
	s.Visited += int64(len(s.order))
}

// BFSHops is the package-level BFSHops over c.
func (c *CSR) BFSHops(s *Scratch, sources []int, allowed *NodeSet, maxHops int) {
	BFSHops(c, s, sources, allowed, maxHops)
}

// expand drains the frontier; stopAt >= 0 halts as soon as that node is
// discovered (its distance and parent are already final — BFS assigns both
// at discovery time, so an early exit cannot change the extracted path).
func expand(r Rows, s *Scratch, allowed *NodeSet, maxHops int, stopAt int) {
	for head := 0; head < len(s.order); head++ {
		u := s.order[head]
		du := s.dist[u]
		if maxHops >= 0 && int(du) >= maxHops {
			continue
		}
		for _, v := range r.Neighbors(int(u)) {
			if s.seen(int(v)) {
				continue
			}
			if allowed != nil && !allowed.Has(int(v)) {
				continue
			}
			s.visit(int(v), du+1, int32(u))
			if int(v) == stopAt {
				return
			}
		}
	}
}

// ShortestPath appends to out one shortest path (by hop count) from u to v
// through the subgraph induced by allowed, inclusive of both endpoints,
// and returns the extended slice — nil when no path exists. The result is
// bit-identical to Graph.ShortestPath on the graph the CSR was built from:
// same FIFO expansion, same adjacency scan order, same lowest-ID parent
// tie-break.
func (c *CSR) ShortestPath(s *Scratch, u, v int, allowed *NodeSet, out []int) []int {
	n := c.Len()
	if u < 0 || u >= n || v < 0 || v >= n {
		return nil
	}
	if allowed != nil && (!allowed.Has(u) || !allowed.Has(v)) {
		return nil
	}
	if u == v {
		return append(out, u)
	}
	s.begin(n)
	s.visit(u, 0, Unreachable)
	expand(c, s, allowed, -1, v)
	s.Visited += int64(len(s.order))
	if !s.seen(v) {
		return nil
	}
	return appendPath(s.parent, u, v, out)
}

// HopDistance returns the hop distance between u and v through the
// subgraph induced by allowed, or Unreachable when disconnected.
func (c *CSR) HopDistance(s *Scratch, u, v int, allowed *NodeSet) int {
	n := c.Len()
	if u < 0 || u >= n || v < 0 || v >= n {
		return Unreachable
	}
	if allowed != nil && (!allowed.Has(u) || !allowed.Has(v)) {
		return Unreachable
	}
	if u == v {
		return 0
	}
	s.begin(n)
	s.visit(u, 0, Unreachable)
	expand(c, s, allowed, -1, v)
	s.Visited += int64(len(s.order))
	if !s.seen(v) {
		return Unreachable
	}
	return int(s.dist[v])
}

// appendPath reconstructs root..v from parent pointers, appending to out.
func appendPath(parent []int32, root, v int, out []int) []int {
	start := len(out)
	out = append(out, v)
	for cur := v; cur != root; {
		cur = int(parent[cur])
		out = append(out, cur)
	}
	for i, j := start, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// SPT is one root's shortest-path tree over an induced subgraph, grown on
// demand: a resumable breadth-first search that keeps its FIFO queue and
// head between queries. DistTo and PathTo expand the queue only until the
// queried node has been discovered, then extract the answer from the
// parent pointers in O(path length). The answers are bit-identical to a
// fresh Graph.ShortestPath / HopDistance from the root: the expansion is
// the same FIFO, adjacency-order scan, BFS parents are fixed when a node
// is discovered, and the discovery order does not depend on where the
// search pauses. A query advances the tree, so an SPT serves one
// goroutine.
type SPT struct {
	// Root is the tree's source node.
	Root int

	c       *CSR
	allowed *NodeSet
	dist    []int32 // hop distance + 1; 0 = not discovered yet
	parent  []int32
	order   []int32 // discovered nodes in FIFO order; doubles as the queue
	head    int     // next queue position to expand
}

// NewSPT starts the tree rooted at root over the subgraph of c induced by
// allowed (nil admits every node). No traversal happens until the first
// query. A root outside the graph or the filter yields an empty tree
// (every node Unreachable).
func NewSPT(c *CSR, root int, allowed *NodeSet) *SPT {
	n := c.Len()
	buf := make([]int32, 2*n)
	t := &SPT{Root: root, c: c, allowed: allowed, dist: buf[:n:n], parent: buf[n:]}
	if root >= 0 && root < n && (allowed == nil || allowed.Has(root)) {
		t.dist[root] = 1
		t.order = append(make([]int32, 0, 16), int32(root))
	}
	return t
}

// growTo expands the queue until v is discovered or the tree is complete,
// and reports whether v was discovered.
func (t *SPT) growTo(v int) bool {
	if v < 0 || v >= len(t.dist) {
		return false
	}
	if t.dist[v] != 0 {
		return true
	}
	if t.allowed != nil && !t.allowed.Has(v) {
		return false
	}
	c := t.c
	for t.dist[v] == 0 && t.head < len(t.order) {
		u := t.order[t.head]
		t.head++
		du := t.dist[u]
		for _, w := range c.col[c.rowPtr[u]:c.rowPtr[u+1]] {
			if t.dist[w] != 0 {
				continue
			}
			if t.allowed != nil && !t.allowed.Has(int(w)) {
				continue
			}
			t.dist[w] = du + 1
			t.parent[w] = u
			t.order = append(t.order, w)
		}
	}
	return t.dist[v] != 0
}

// DistTo returns v's hop distance from the root, or Unreachable.
func (t *SPT) DistTo(v int) int {
	if !t.growTo(v) {
		return Unreachable
	}
	return int(t.dist[v] - 1)
}

// PathTo appends the root→v path to out and returns the extended slice,
// nil when v is unreachable. The path is bit-identical to
// Graph.ShortestPath(root, v, allowed).
func (t *SPT) PathTo(v int, out []int) []int {
	if !t.growTo(v) {
		return nil
	}
	if v == t.Root {
		return append(out, v)
	}
	return appendPath(t.parent, t.Root, v, out)
}

// Reached lists the nodes discovered so far, in expansion order — the
// tree's traversal work to date. The slice aliases the tree and is valid
// until the next query.
func (t *SPT) Reached() []int32 { return t.order }

// Validate checks CSR structural invariants — monotone row pointers in
// range, neighbor indices in range — and, for normalized CSRs (built by
// NewCSRFromEdges), sorted duplicate-free self-loop-free rows plus
// symmetry. It exists for the construction fuzz target.
func (c *CSR) Validate(normalized bool) error {
	n := c.Len()
	if n < 0 || c.rowPtr[0] != 0 || int(c.rowPtr[n]) != len(c.col) {
		return fmt.Errorf("graph: CSR row pointers corrupt")
	}
	for i := 0; i < n; i++ {
		if c.rowPtr[i] > c.rowPtr[i+1] {
			return fmt.Errorf("graph: CSR row %d has negative length", i)
		}
	}
	for i := 0; i < n; i++ {
		row := c.Neighbors(i)
		for k, v := range row {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: CSR row %d neighbor %d out of range", i, v)
			}
			if !normalized {
				continue
			}
			if int(v) == i {
				return fmt.Errorf("graph: CSR row %d keeps a self-loop", i)
			}
			if k > 0 && row[k-1] >= v {
				return fmt.Errorf("graph: CSR row %d not strictly sorted", i)
			}
			nb := c.Neighbors(int(v))
			at := sort.Search(len(nb), func(j int) bool { return nb[j] >= int32(i) })
			if at == len(nb) || nb[at] != int32(i) {
				return fmt.Errorf("graph: CSR edge (%d,%d) not symmetric", i, v)
			}
		}
	}
	if len(c.col) > math.MaxInt32 {
		return fmt.Errorf("graph: CSR arc count overflows int32")
	}
	return nil
}
