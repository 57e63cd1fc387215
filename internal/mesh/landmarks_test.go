package mesh

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/shapes"
)

// associatePerLandmark is the association sweep the Voronoi flood
// replaced, kept as its oracle: one unlimited BFS per landmark in
// ascending ID order, each claiming the nodes it reaches strictly closer
// than every earlier landmark — the (hops, landmark-ID) minimum by
// construction.
func associatePerLandmark(csr *graph.CSR, ids []int) (assoc, hops []int) {
	n := csr.Len()
	assoc = make([]int, n)
	hops = make([]int, n)
	for i := range assoc {
		assoc[i] = NoLandmark
		hops[i] = graph.Unreachable
	}
	var s graph.Scratch
	src := make([]int, 1)
	for _, lm := range ids {
		src[0] = lm
		csr.BFSHops(&s, src, nil, -1)
		for _, u := range s.Reached() {
			d := s.Dist(int(u))
			if hops[u] == graph.Unreachable || d < hops[u] {
				hops[u] = d
				assoc[u] = lm
			}
		}
	}
	return assoc, hops
}

// checkAssociation elects landmarks on csr and requires the flood's
// association to equal the per-landmark oracle's exactly.
func checkAssociation(t *testing.T, label string, csr *graph.CSR, k int) {
	t.Helper()
	lms, err := electLandmarks(newSurfKernel(csr, true), k)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assoc, hops := associatePerLandmark(csr, lms.IDs)
	for u := range assoc {
		if lms.Assoc[u] != assoc[u] || lms.Hops[u] != hops[u] {
			t.Fatalf("%s: node %d: flood (landmark %d, %d hops), oracle (landmark %d, %d hops)",
				label, u, lms.Assoc[u], lms.Hops[u], assoc[u], hops[u])
		}
	}
}

func graphCSR(t *testing.T, g *graph.Graph, group []int) *graph.CSR {
	t.Helper()
	csr, err := compactGroup(&groupCompactor{}, g.Len(), sortedMembers(group), func(v int) []int { return g.Adj[v] })
	if err != nil {
		t.Fatal(err)
	}
	return csr
}

// TestLandmarkAssociationMatchesOracle: on every detected group of the
// sphere, cube and torus fixtures, at several landmark spacings, the
// multi-source flood associates every node exactly as the per-landmark
// sweep does.
func TestLandmarkAssociationMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fixtures are expensive")
	}
	for _, fx := range diffFixtures(t) {
		for gi, group := range fx.groups {
			csr := graphCSR(t, fx.net.G, group)
			for _, k := range []int{1, 3, 5} {
				checkAssociation(t, fmt.Sprintf("%s/group%d/k%d", fx.name, gi, k), csr, k)
			}
		}
	}
}

// fuzzCSR decodes one of three graph families from the fuzz input: a
// random edge list, a ring with chords, or a grid with extra edges. Rings
// and grids are tie-heavy — many nodes sit at equal distance from two
// landmarks — which is where the smaller-ID rule decides.
func fuzzCSR(data []byte, kind uint8) (*graph.CSR, error) {
	var n int
	var edges [][2]int
	switch kind % 3 {
	case 0:
		if len(data) > 0 {
			n = 1 + int(data[0])%48
			data = data[1:]
		}
	case 1:
		n = 3 + len(data)%61
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, (i + 1) % n})
		}
	default:
		w, h := 1, 1
		if len(data) >= 2 {
			w, h = 1+int(data[0])%9, 1+int(data[1])%9
			data = data[2:]
		}
		n = w * h
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					edges = append(edges, [2]int{y*w + x, y*w + x + 1})
				}
				if y+1 < h {
					edges = append(edges, [2]int{y*w + x, (y+1)*w + x})
				}
			}
		}
	}
	if n == 0 {
		return graph.NewCSRFromEdges(0, nil)
	}
	for i := 0; i+1 < len(data); i += 2 {
		edges = append(edges, [2]int{int(data[i]) % n, int(data[i+1]) % n})
	}
	return graph.NewCSRFromEdges(n, edges)
}

// FuzzLandmarkAssociation drives the flood against the per-landmark
// oracle on random and tie-heavy graphs, connected or not, at spacings
// 1–4.
func FuzzLandmarkAssociation(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{5, 5}, uint8(2), uint8(1))
	f.Add([]byte{7, 6, 0, 0, 1, 4}, uint8(2), uint8(2))
	f.Add([]byte{20, 0, 1, 1, 2, 5, 6, 7, 8, 9, 3}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, kind, kRaw uint8) {
		csr, err := fuzzCSR(data, kind)
		if err != nil {
			t.Fatal(err)
		}
		checkAssociation(t, "fuzz", csr, 1+int(kRaw%4))
	})
}

// TestFig1SurfaceWorkBound is a work guard that does not depend on wall
// time: building the outer surface of the paper's Fig. 1 network (1800
// surface + 2410 interior nodes, seed 101, K=3) must touch at most 20 000
// BFS nodes. The Voronoi flood costs one pass over the group and the
// on-demand trees stop at nearby landmarks; a slide back to one full
// search per landmark (about 165 000 visits on this group) fails here
// deterministically.
func TestFig1SurfaceWorkBound(t *testing.T) {
	shape, err := shapes.NewBoxWithHoles(geom.V(0, 0, 0), geom.V(13, 13, 13),
		[]geom.Sphere{{Center: geom.V(6.5, 6.5, 6.5), Radius: 2.3}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := netgen.Generate(netgen.Config{Shape: shape, SurfaceNodes: 1800, InteriorNodes: 2410, TargetAvgDegree: 18.8, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Detect(net, nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var outer []int
	for _, g := range res.Groups {
		if len(g) > len(outer) {
			outer = g
		}
	}
	m := &obs.Mem{}
	s, err := BuildContext(context.Background(), m, net.G, outer, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	visited := m.Total(obs.StageSurface, obs.CtrBFSNodesVisited)
	t.Logf("outer group: %d members, %d landmarks, %d BFS nodes visited", len(outer), len(s.Landmarks.IDs), visited)
	if visited > 20000 {
		t.Errorf("outer-group build visited %d BFS nodes, want <= 20000", visited)
	}
}
