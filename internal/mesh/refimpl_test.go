package mesh

// This file carries a verbatim copy of the pre-CSR surface pipeline — the
// allocating, closure-filtered, fresh-BFS-per-query implementation the
// kernel in kernel.go replaced — kept as the oracle for the differential
// tests in differential_test.go. The CDM construction's correctness rests
// on every node agreeing on "the" shortest path, so the rewrite must be
// bit-identical, not merely equivalent.

import (
	"sort"

	"repro/internal/graph"
)

func refElectLandmarks(g *graph.Graph, group []int, k int) (*Landmarks, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	inGroup := make([]bool, g.Len())
	for _, v := range group {
		inGroup[v] = true
	}
	member := graph.InSet(inGroup)

	sorted := append([]int(nil), group...)
	sort.Ints(sorted)

	covered := make([]bool, g.Len())
	var ids []int
	for _, v := range sorted {
		if covered[v] {
			continue
		}
		ids = append(ids, v)
		dist := g.BFSHops([]int{v}, member, k)
		for u, d := range dist {
			if d != graph.Unreachable {
				covered[u] = true
			}
		}
	}

	assoc := make([]int, g.Len())
	hops := make([]int, g.Len())
	for i := range assoc {
		assoc[i] = NoLandmark
		hops[i] = graph.Unreachable
	}
	for _, lm := range ids {
		dist := g.BFSHops([]int{lm}, member, -1)
		for u, d := range dist {
			if d == graph.Unreachable {
				continue
			}
			if hops[u] == graph.Unreachable || d < hops[u] {
				hops[u] = d
				assoc[u] = lm
			}
		}
	}
	return &Landmarks{IDs: ids, Assoc: assoc, Hops: hops}, nil
}

func refBuildCDG(g *graph.Graph, lms *Landmarks, member func(int) bool) []Edge {
	seen := make(map[Edge]bool)
	var edges []Edge
	for u := range g.Adj {
		if !member(u) || lms.Assoc[u] == NoLandmark {
			continue
		}
		for _, v := range g.Adj[u] {
			if !member(v) || lms.Assoc[v] == NoLandmark {
				continue
			}
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

func refBuildCDM(g *graph.Graph, lms *Landmarks, member func(int) bool, cdg []Edge) cdmResult {
	res := cdmResult{
		pathEdges: make(map[int][]Edge),
		paths:     make(map[Edge][]int),
	}
	for _, e := range cdg {
		path := g.ShortestPath(e[0], e[1], member)
		if path == nil || !pathNonInterleaved(path, lms.Assoc, e[0], e[1]) {
			continue
		}
		res.edges = append(res.edges, e)
		res.claim(e, path)
	}
	return res
}

func refTriangulate(g *graph.Graph, member func(int) bool, cdg []Edge, cdm *cdmResult, edgeSet, forbidden map[Edge]bool) []Edge {
	adj := make(map[int]map[int]bool)
	link := func(e Edge) {
		edgeSet[e] = true
		if adj[e[0]] == nil {
			adj[e[0]] = make(map[int]bool)
		}
		if adj[e[1]] == nil {
			adj[e[1]] = make(map[int]bool)
		}
		adj[e[0]][e[1]] = true
		adj[e[1]][e[0]] = true
	}
	for e := range edgeSet {
		link(e)
	}
	faceCount := make(map[Edge]int)
	for _, f := range refEnumerateFaces(edgesFromSet(edgeSet)) {
		faceCount[mkEdge(f[0], f[1])]++
		faceCount[mkEdge(f[0], f[2])]++
		faceCount[mkEdge(f[1], f[2])]++
	}

	commonNbrs := func(a, b int) []int {
		var out []int
		for c := range adj[a] {
			if adj[b][c] {
				out = append(out, c)
			}
		}
		sort.Ints(out)
		return out
	}

	tryAdd := func(e Edge) bool {
		if edgeSet[e] || forbidden[e] {
			return false
		}
		corners := commonNbrs(e[0], e[1])
		if len(corners) == 0 || len(corners) > 2 {
			return false
		}
		for _, c := range corners {
			if faceCount[mkEdge(e[0], c)]+1 > 2 || faceCount[mkEdge(e[1], c)]+1 > 2 {
				return false
			}
		}
		path := g.ShortestPath(e[0], e[1], member)
		if path == nil {
			return false
		}
		for _, u := range path[1 : len(path)-1] {
			if cdm.blocks(u, e[0], e[1]) {
				return false
			}
		}
		link(e)
		for _, c := range corners {
			faceCount[e]++
			faceCount[mkEdge(e[0], c)]++
			faceCount[mkEdge(e[1], c)]++
		}
		cdm.claim(e, path)
		return true
	}

	var added []Edge
	for _, e := range cdg {
		if tryAdd(e) {
			added = append(added, e)
		}
	}
	for {
		progress := false
		var verts []int
		for v := range adj {
			verts = append(verts, v)
		}
		sort.Ints(verts)
		for _, mid := range verts {
			var nbrs []int
			for u := range adj[mid] {
				nbrs = append(nbrs, u)
			}
			sort.Ints(nbrs)
			for x := 0; x < len(nbrs); x++ {
				for y := x + 1; y < len(nbrs); y++ {
					e := mkEdge(nbrs[x], nbrs[y])
					if tryAdd(e) {
						added = append(added, e)
						progress = true
					}
				}
			}
		}
		if !progress {
			break
		}
	}
	sortEdges(added)
	return added
}

func refFlipPass(g *graph.Graph, member func(int) bool, edgeSet, removed map[Edge]bool, maxIter int) int {
	flips := 0
	for iter := 0; iter < maxIter; iter++ {
		cur := edgesFromSet(edgeSet)
		corners := faceCorners(refEnumerateFaces(cur))
		var bad *Edge
		for _, e := range cur {
			if len(corners[e]) >= 3 {
				e := e
				bad = &e
				break
			}
		}
		if bad == nil {
			return flips
		}
		delete(edgeSet, *bad)
		removed[*bad] = true
		flips++
		cs := append([]int(nil), corners[*bad]...)
		sort.Ints(cs)
		dist := func(a, b int) int { return g.HopDistance(a, b, member) }
		for _, e := range cornerMST(dist, cs) {
			if !removed[e] {
				edgeSet[e] = true
			}
		}
	}
	return flips
}

// refEnumerateFaces is the map-of-maps 3-clique enumeration the flip pass
// ran before faceGraph kept triangle counts incrementally: every common
// neighbor of every edge's endpoints, deduplicated and sorted.
func refEnumerateFaces(edges []Edge) []Face {
	adj := make(map[int]map[int]bool)
	addDir := func(a, b int) {
		if adj[a] == nil {
			adj[a] = make(map[int]bool)
		}
		adj[a][b] = true
	}
	for _, e := range edges {
		addDir(e[0], e[1])
		addDir(e[1], e[0])
	}
	seen := make(map[Face]bool)
	var faces []Face
	for _, e := range edges {
		for c := range adj[e[0]] {
			if c == e[1] || !adj[e[1]][c] {
				continue
			}
			f := [3]int{e[0], e[1], c}
			sort.Ints(f[:])
			if !seen[f] {
				seen[f] = true
				faces = append(faces, f)
			}
		}
	}
	sort.Slice(faces, func(i, j int) bool {
		if faces[i][0] != faces[j][0] {
			return faces[i][0] < faces[j][0]
		}
		if faces[i][1] != faces[j][1] {
			return faces[i][1] < faces[j][1]
		}
		return faces[i][2] < faces[j][2]
	})
	return faces
}

func edgesFromSet(set map[Edge]bool) []Edge {
	out := make([]Edge, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sortEdges(out)
	return out
}

// refBuild replicates the pre-kernel BuildContext control flow on the
// reference primitives above.
func refBuild(g *graph.Graph, group []int, cfg Config) (*Surface, error) {
	cfg = cfg.withDefaults()
	if len(group) == 0 {
		return nil, ErrEmptyGroup
	}
	inGroup := make([]bool, g.Len())
	for _, v := range group {
		inGroup[v] = true
	}
	member := graph.InSet(inGroup)

	lms, err := refElectLandmarks(g, group, cfg.K)
	if err != nil {
		return nil, err
	}
	cdg := refBuildCDG(g, lms, member)
	cdm := refBuildCDM(g, lms, member, cdg)

	edgeSet := make(map[Edge]bool, len(cdm.edges))
	for _, e := range cdm.edges {
		edgeSet[e] = true
	}
	forbidden := make(map[Edge]bool)
	flips := 0
	for round := 0; round < maxRepairRounds; round++ {
		added := refTriangulate(g, member, cdg, &cdm, edgeSet, forbidden)
		f := refFlipPass(g, member, edgeSet, forbidden, maxFlipIterations)
		flips += f
		if len(added) == 0 && f == 0 {
			break
		}
	}
	final := edgesFromSet(edgeSet)
	faces := refEnumerateFaces(final)

	s := &Surface{
		Group:     append([]int(nil), group...),
		Landmarks: lms,
		CDG:       cdg,
		CDM:       cdm.edges,
		Edges:     final,
		Faces:     faces,
		Flips:     flips,
		Paths:     cdm.paths,
	}
	s.Quality = evaluateQuality(lms.IDs, final, faces)
	return s, nil
}
