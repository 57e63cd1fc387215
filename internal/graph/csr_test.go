package graph

import (
	"math/rand"
	"testing"
)

// randomGraph builds a connected-ish random graph with AddEdge insertion
// order (unsorted adjacency rows), mirroring how tests elsewhere build
// graphs. Determinism of the CSR/SPT kernel must hold for arbitrary stored
// order, not just the sorted rows internal/netgen produces.
func randomGraph(n int, extra int, rng *rand.Rand) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(perm[i], perm[i+1])
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func randomFilter(n int, rng *rand.Rand) ([]bool, *NodeSet) {
	member := make([]bool, n)
	for i := range member {
		member[i] = rng.Float64() < 0.8
	}
	return member, NodeSetOf(member)
}

func eqIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCSRPreservesAdjacency asserts NewCSR mirrors the source rows
// verbatim — order included — since path determinism depends on scan order.
func TestCSRPreservesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(40, 60, rng)
	c := NewCSR(g)
	if c.Len() != g.Len() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d edges", c.Len(), g.Len(), c.NumEdges(), g.NumEdges())
	}
	for u := range g.Adj {
		row := c.Neighbors(u)
		if len(row) != len(g.Adj[u]) || c.Degree(u) != g.Degree(u) {
			t.Fatalf("node %d degree mismatch", u)
		}
		for k, v := range g.Adj[u] {
			if int(row[k]) != v {
				t.Fatalf("node %d slot %d: CSR has %d, graph has %d", u, k, row[k], v)
			}
		}
	}
}

// TestCSRShortestPathMatchesGraph is the core bit-identity differential:
// CSR.ShortestPath must equal Graph.ShortestPath for every pair, with and
// without a node filter.
func TestCSRShortestPathMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(50)
		g := randomGraph(n, n/2, rng)
		c := NewCSR(g)
		member, set := randomFilter(n, rng)
		var s Scratch
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := g.ShortestPath(u, v, InSet(member))
				got := c.ShortestPath(&s, u, v, set, nil)
				if !eqIntSlices(want, got) {
					t.Fatalf("trial %d path %d->%d: graph %v, csr %v", trial, u, v, want, got)
				}
			}
		}
	}
}

// TestSPTPathsMatchShortestPath asserts every path extracted from an
// on-demand SPT is bit-identical to a fresh truncated search from the same
// root.
func TestSPTPathsMatchShortestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(60)
		g := randomGraph(n, n, rng)
		c := NewCSR(g)
		member, set := randomFilter(n, rng)
		for _, root := range rng.Perm(n)[:5] {
			tr := NewSPT(c, root, set)
			if tr.Root != root {
				t.Fatalf("tree root %d, want %d", tr.Root, root)
			}
			for v := 0; v < n; v++ {
				want := g.ShortestPath(root, v, InSet(member))
				got := tr.PathTo(v, nil)
				if !eqIntSlices(want, got) {
					t.Fatalf("trial %d SPT path %d->%d: fresh %v, tree %v", trial, root, v, want, got)
				}
				wd := g.HopDistance(root, v, InSet(member))
				if tr.DistTo(v) != wd {
					t.Fatalf("trial %d dist %d->%d: fresh %d, tree %d", trial, root, v, wd, tr.DistTo(v))
				}
			}
		}
	}
}

// eagerSPT is the complete-tree builder the on-demand SPT replaced: one
// unlimited BFS from root, run to exhaustion up front. It is the oracle
// for the fully-grown state of a resumable tree (dist here is the plain
// hop distance, Unreachable where the search did not reach).
func eagerSPT(c *CSR, root int, allowed *NodeSet) (dist, parent, order []int32) {
	n := c.Len()
	dist = make([]int32, n)
	parent = make([]int32, n)
	for j := range dist {
		dist[j] = int32(Unreachable)
		parent[j] = int32(Unreachable)
	}
	if root < 0 || root >= n || (allowed != nil && !allowed.Has(root)) {
		return dist, parent, nil
	}
	dist[root] = 0
	order = append(order, int32(root))
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, v := range c.Neighbors(int(u)) {
			if dist[v] != int32(Unreachable) {
				continue
			}
			if allowed != nil && !allowed.Has(int(v)) {
				continue
			}
			dist[v] = dist[u] + 1
			parent[v] = u
			order = append(order, v)
		}
	}
	return dist, parent, order
}

// sparseGraph draws m random edges over n nodes with no spanning path, so
// most instances fall apart into several components.
func sparseGraph(n, m int, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestSPTResumableMatchesFreshSearch interleaves random queries across
// several on-demand trees of one CSR — connected and disconnected graphs,
// with and without a node filter — and requires every answer to equal a
// fresh scratch search. Pausing one tree mid-growth while others advance
// must not change anything. Once every node has been queried, each tree
// must hold exactly the eager builder's dist/parent/order.
func TestSPTResumableMatchesFreshSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(70)
		var g *Graph
		if trial%2 == 0 {
			g = randomGraph(n, n/2, rng)
		} else {
			g = sparseGraph(n, n*2/3, rng)
		}
		c := NewCSR(g)
		var set *NodeSet
		if trial%3 != 0 {
			_, set = randomFilter(n, rng)
		}
		trees := make([]*SPT, 1+rng.Intn(5))
		for i := range trees {
			trees[i] = NewSPT(c, rng.Intn(n), set)
		}
		var s Scratch
		var buf []int
		for q := 0; q < 4*n; q++ {
			tr := trees[rng.Intn(len(trees))]
			v := rng.Intn(n)
			if rng.Intn(2) == 0 {
				want := c.ShortestPath(&s, tr.Root, v, set, nil)
				buf = tr.PathTo(v, buf[:0])
				if !eqIntSlices(want, buf) {
					t.Fatalf("trial %d path %d->%d: fresh %v, tree %v", trial, tr.Root, v, want, buf)
				}
			} else if want, got := c.HopDistance(&s, tr.Root, v, set), tr.DistTo(v); want != got {
				t.Fatalf("trial %d dist %d->%d: fresh %d, tree %d", trial, tr.Root, v, want, got)
			}
		}
		for _, tr := range trees {
			for v := 0; v < n; v++ {
				tr.DistTo(v)
			}
			dist, parent, order := eagerSPT(c, tr.Root, set)
			if len(order) != len(tr.order) {
				t.Fatalf("trial %d root %d: grown tree reached %d nodes, eager %d", trial, tr.Root, len(tr.order), len(order))
			}
			for i, u := range order {
				if tr.order[i] != u {
					t.Fatalf("trial %d root %d: order[%d] = %d, eager %d", trial, tr.Root, i, tr.order[i], u)
				}
			}
			for v := 0; v < n; v++ {
				if got := tr.DistTo(v); got != int(dist[v]) {
					t.Fatalf("trial %d root %d: dist[%d] = %d, eager %d", trial, tr.Root, v, got, dist[v])
				}
				if dist[v] > 0 && tr.parent[v] != parent[v] {
					t.Fatalf("trial %d root %d: parent[%d] = %d, eager %d", trial, tr.Root, v, tr.parent[v], parent[v])
				}
			}
		}
	}
}

// TestBFSHopsScratchMatchesBFSHops covers both the CSR traversal and the
// slice-adjacency scratch variant against the allocating original.
func TestBFSHopsScratchMatchesBFSHops(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(60)
		g := randomGraph(n, n/3, rng)
		c := NewCSR(g)
		member, set := randomFilter(n, rng)
		sources := rng.Perm(n)[:1+rng.Intn(3)]
		maxHops := -1
		if rng.Intn(2) == 0 {
			maxHops = rng.Intn(6)
		}
		want := g.BFSHops(sources, InSet(member), maxHops)
		var s, s2 Scratch
		c.BFSHops(&s, sources, set, maxHops)
		g.BFSHopsScratch(&s2, sources, InSet(member), maxHops)
		for v := 0; v < n; v++ {
			if s.Dist(v) != want[v] {
				t.Fatalf("trial %d CSR dist[%d] = %d, want %d", trial, v, s.Dist(v), want[v])
			}
			if s2.Dist(v) != want[v] {
				t.Fatalf("trial %d scratch dist[%d] = %d, want %d", trial, v, s2.Dist(v), want[v])
			}
		}
		// Reached must enumerate exactly the reached set.
		reached := 0
		for _, d := range want {
			if d != Unreachable {
				reached++
			}
		}
		if len(s.Reached()) != reached || len(s2.Reached()) != reached {
			t.Fatalf("trial %d reached %d/%d, want %d", trial, len(s.Reached()), len(s2.Reached()), reached)
		}
	}
}

func TestCSRHopDistance(t *testing.T) {
	g := pathGraph(6)
	c := NewCSR(g)
	var s Scratch
	if d := c.HopDistance(&s, 0, 5, nil); d != 5 {
		t.Errorf("HopDistance(0,5) = %d", d)
	}
	if d := c.HopDistance(&s, 3, 3, nil); d != 0 {
		t.Errorf("HopDistance(3,3) = %d", d)
	}
	blocked := NewNodeSet(6)
	for _, v := range []int{0, 1, 2, 4, 5} {
		blocked.Add(v)
	}
	if d := c.HopDistance(&s, 0, 5, blocked); d != Unreachable {
		t.Errorf("severed HopDistance = %d, want Unreachable", d)
	}
	if p := c.ShortestPath(&s, 0, 5, blocked, nil); p != nil {
		t.Errorf("severed ShortestPath = %v, want nil", p)
	}
	if d := c.HopDistance(&s, -1, 2, nil); d != Unreachable {
		t.Errorf("out-of-range HopDistance = %d", d)
	}
}

func TestNodeSet(t *testing.T) {
	s := NewNodeSet(130)
	for _, v := range []int{0, 63, 64, 129} {
		s.Add(v)
	}
	s.Add(-1)
	s.Add(500) // out of capacity: ignored
	if s.Count() != 4 {
		t.Errorf("Count = %d", s.Count())
	}
	for _, v := range []int{0, 63, 64, 129} {
		if !s.Has(v) {
			t.Errorf("missing %d", v)
		}
	}
	if s.Has(1) || s.Has(-1) || s.Has(500) {
		t.Error("spurious membership")
	}
	fn := s.Func()
	if !fn(64) || fn(65) {
		t.Error("Func adapter mismatch")
	}
	s.Reset(10)
	if s.Count() != 0 || s.Has(0) {
		t.Error("Reset did not clear")
	}
	var nilSet *NodeSet
	if !nilSet.Func()(42) {
		t.Error("nil set Func must admit all")
	}
}

// TestSPTQueryAllocsZero pins the steady-state cost of an SPT path query:
// with the tree grown past the target and the output buffer warm,
// extracting a path or a distance must not allocate.
func TestSPTQueryAllocsZero(t *testing.T) {
	g := gridGraph(16, 16)
	c := NewCSR(g)
	tr := NewSPT(c, 0, nil)
	buf := make([]int, 0, 64)
	buf = tr.PathTo(255, buf[:0]) // grow the tree
	allocs := testing.AllocsPerRun(100, func() {
		buf = tr.PathTo(255, buf[:0])
		_ = tr.DistTo(128)
	})
	if allocs != 0 {
		t.Errorf("grown SPT query allocates %.1f per run, want 0", allocs)
	}
}

// TestScratchReuseAllocsZero pins the steady-state cost of a warm Scratch
// traversal on a CSR: no allocations once buffers are sized.
func TestScratchReuseAllocsZero(t *testing.T) {
	g := gridGraph(16, 16)
	c := NewCSR(g)
	var s Scratch
	c.BFSHops(&s, []int{0}, nil, -1) // warm the buffers
	srcs := []int{0}
	allocs := testing.AllocsPerRun(100, func() {
		c.BFSHops(&s, srcs, nil, -1)
	})
	if allocs != 0 {
		t.Errorf("warm CSR BFS allocates %.1f per run, want 0", allocs)
	}
}

// TestScratchEpochWrap forces the epoch counter through zero and checks
// stale marks do not leak into the new epoch.
func TestScratchEpochWrap(t *testing.T) {
	g := pathGraph(4)
	c := NewCSR(g)
	var s Scratch
	c.BFSHops(&s, []int{0}, nil, -1)
	s.epoch = ^uint32(0) // next begin() wraps to 0 and must recover
	c.BFSHops(&s, []int{3}, nil, 0)
	if s.Dist(3) != 0 {
		t.Errorf("dist[3] = %d after wrap", s.Dist(3))
	}
	if s.Dist(0) != Unreachable {
		t.Errorf("stale mark leaked: dist[0] = %d", s.Dist(0))
	}
}

func TestNewCSRFromEdgesNormalizes(t *testing.T) {
	c, err := NewCSRFromEdges(5, [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {3, 4}, {4, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(true); err != nil {
		t.Fatal(err)
	}
	if c.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (dups and self-loops dropped)", c.NumEdges())
	}
	if c.Degree(2) != 0 {
		t.Errorf("self-loop survived: degree(2) = %d", c.Degree(2))
	}
	if _, err := NewCSRFromEdges(3, [][2]int{{0, 3}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := NewCSRFromEdges(-1, nil); err == nil {
		t.Error("negative node count accepted")
	}
	empty, err := NewCSRFromEdges(0, nil)
	if err != nil || empty.Len() != 0 || empty.NumEdges() != 0 {
		t.Errorf("empty graph: %v len=%d", err, empty.Len())
	}
}

// FuzzCSRFromEdges feeds arbitrary byte-derived edge lists (duplicates,
// self-loops, empty graphs) through the normalized constructor and checks
// structural invariants plus traversal agreement with the slice-adjacency
// representation of the same normalized edge set.
func FuzzCSRFromEdges(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 1, 1, 0, 2, 2}, uint8(4))
	f.Add([]byte{5, 5, 1, 2, 2, 1, 0, 7}, uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8) {
		n := int(nRaw % 33)
		var edges [][2]int
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, [2]int{int(data[i]), int(data[i+1])})
		}
		c, err := NewCSRFromEdges(n, edges)
		if err != nil {
			for _, e := range edges {
				if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
					return // rejection was legitimate
				}
			}
			t.Fatalf("in-range edges rejected: %v", err)
		}
		if err := c.Validate(true); err != nil {
			t.Fatal(err)
		}
		// Rebuild as a Graph with the same normalized rows and require
		// identical traversal results from every source.
		g := New(n)
		for u := 0; u < n; u++ {
			for _, v := range c.Neighbors(u) {
				g.Adj[u] = append(g.Adj[u], int(v))
			}
		}
		var s Scratch
		for u := 0; u < n; u++ {
			want := g.BFSHops([]int{u}, All, -1)
			c.BFSHops(&s, []int{u}, nil, -1)
			for v := 0; v < n; v++ {
				if s.Dist(v) != want[v] {
					t.Fatalf("dist from %d to %d: csr %d, graph %d", u, v, s.Dist(v), want[v])
				}
			}
		}
	})
}
