package mesh

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/obs"
)

const (
	// maxFlipIterations bounds the step-V loop.
	maxFlipIterations = 100
	// maxRepairRounds bounds the fill↔flip alternation: each flip can
	// open a polygon hole that another fill pass closes.
	maxRepairRounds = 8
)

// Config parameterizes surface construction. The zero value selects the
// paper's defaults.
type Config struct {
	// K is the landmark spacing in hops (mesh fineness). The paper uses
	// 3–5; zero means 3 (the Fig. 1(f) setting).
	K int

	// noSPT disables the shortest-path trees so every path and distance
	// query runs a fresh BFS — the slow reference mode the differential
	// tests compare against. The constructed surface is bit-identical
	// either way.
	noSPT bool
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 3
	}
	return c
}

// ErrEmptyGroup is returned when a boundary group has no nodes.
var ErrEmptyGroup = errors.New("mesh: boundary group is empty")

// Quality summarizes how close a constructed mesh is to a closed
// 2-manifold, the property the paper's step V targets.
type Quality struct {
	V, E, F int
	// Euler is V − E + F; 2 for a sphere-like closed surface, 0 for a
	// torus-like one.
	Euler int
	// NonManifoldEdges counts edges bordering three or more faces
	// (zero after a successful edge-flip phase).
	NonManifoldEdges int
	// BorderEdges counts edges bordering fewer than two faces (holes in
	// the reconstructed surface).
	BorderEdges int
	// IsolatedVertices counts landmarks with no incident mesh edge.
	IsolatedVertices int
	// Closed2Manifold reports a watertight result: every edge borders
	// exactly two faces and every vertex's faces form a single fan.
	Closed2Manifold bool
}

// String implements fmt.Stringer.
func (q Quality) String() string {
	return fmt.Sprintf("V=%d E=%d F=%d euler=%d nonManifold=%d border=%d isolated=%d closed=%v",
		q.V, q.E, q.F, q.Euler, q.NonManifoldEdges, q.BorderEdges, q.IsolatedVertices, q.Closed2Manifold)
}

// Surface is the reconstructed triangular mesh of one boundary group, with
// the intermediate structures the paper illustrates (Figs. 1(c)–(f)).
type Surface struct {
	// Group lists the boundary nodes this surface was built from.
	Group []int
	// Landmarks is the step-I election.
	Landmarks *Landmarks
	// CDG is the step-II Combinatorial Delaunay Graph (non-planar).
	CDG []Edge
	// CDM is the step-III planar subgraph.
	CDM []Edge
	// Edges is the final virtual-edge set after triangulation (step IV)
	// and edge flipping (step V).
	Edges []Edge
	// Faces lists the triangles of the final mesh.
	Faces []Face
	// Flips is the number of step-V transformations applied.
	Flips int
	// Quality evaluates the final mesh.
	Quality Quality
	// Paths realizes each virtual edge as its boundary-node shortest
	// path (the multi-hop "wires" of the overlay mesh). Edges inserted
	// by a flip have no recorded path.
	Paths map[Edge][]int
}

// Build constructs the triangular boundary surface of one boundary group
// (Sec. III, steps I–V).
//
// Deprecated: Build is kept as a thin convenience wrapper for existing
// callers. New code should call BuildContext, which adds cancellation and
// observer injection; Build is exactly
// BuildContext(context.Background(), nil, g, group, cfg).
func Build(g *graph.Graph, group []int, cfg Config) (*Surface, error) {
	return BuildContext(context.Background(), nil, g, group, cfg)
}

// BuildContext is Build with cancellation and observation. ctx is checked
// between construction steps; o, when non-nil, receives a span per step
// (surface, landmarks, cdg, cdm, and per repair round triangulate/flip)
// plus the structural counters (landmarks elected, CDG/CDM edges, faces,
// flips applied). A nil o adds no cost, and observation never changes the
// constructed mesh.
func BuildContext(ctx context.Context, o obs.Observer, g *graph.Graph, group []int, cfg Config) (*Surface, error) {
	return buildGraphGroup(ctx, o, &groupCompactor{}, g, group, cfg.withDefaults())
}

// buildGraphGroup builds one group of g through buildGroup. The surface
// keeps group, as given, for its Group field.
func buildGraphGroup(ctx context.Context, o obs.Observer, c *groupCompactor, g *graph.Graph, group []int, cfg Config) (*Surface, error) {
	if len(group) == 0 {
		return nil, ErrEmptyGroup
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	surf, err := buildGroup(ctx, o, c, g.Len(), sortedMembers(group), func(v int) []int { return g.Adj[v] }, cfg)
	if err != nil {
		return nil, err
	}
	surf.Group = append([]int(nil), group...)
	return surf, nil
}

// buildGroup builds one group's surface on the compact CSR of its induced
// subgraph and renames the result back to stable IDs — the one build path
// behind Build, BuildAll and the engine's cache misses. members must be
// ascending and duplicate-free; n is the stable-ID universe.
func buildGroup[T int | int32](ctx context.Context, o obs.Observer, c *groupCompactor, n int, members []int, neighbors func(int) []T, cfg Config) (*Surface, error) {
	csr, err := compactGroup(c, n, members, neighbors)
	if err != nil {
		return nil, err
	}
	surf, err := buildOnKernel(ctx, o, newSurfKernel(csr, cfg.noSPT), members, cfg)
	if err != nil {
		return nil, err
	}
	renameSurface(surf, members, n)
	return surf, nil
}

// buildOnKernel runs surface steps I–V on the compact kernel of the group
// members (ascending stable IDs; compact ID i is members[i]). The surface
// comes back in compact IDs — renameSurface maps it to stable IDs and
// fills in Group. cfg must already have its defaults applied.
func buildOnKernel(ctx context.Context, o obs.Observer, kn *surfKernel, members []int, cfg Config) (*Surface, error) {
	surfaceSpan := obs.Start(o, obs.StageSurface)
	defer surfaceSpan.End()

	lmSpan := obs.Start(o, obs.StageLandmarks)
	lms, err := electLandmarks(kn, cfg.K)
	lmSpan.End()
	if err != nil {
		return nil, err
	}
	obs.Add(o, obs.StageLandmarks, obs.CtrLandmarks, int64(len(lms.IDs)))
	if o != nil {
		// Flight recorder: each winner of the k-hop election, in
		// election order, by stable ID.
		for _, id := range lms.IDs {
			obs.NodeTransition(o, obs.StageLandmarks, obs.TransLandmarkElect, members[id], 0)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	cdgSpan := obs.Start(o, obs.StageCDG)
	cdg := buildCDG(kn, lms)
	cdgSpan.End()
	obs.Add(o, obs.StageCDG, obs.CtrEdgesCDG, int64(len(cdg)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	cdmSpan := obs.Start(o, obs.StageCDM)
	cdm := buildCDM(kn, lms, cdg)
	cdmSpan.End()
	obs.Add(o, obs.StageCDM, obs.CtrEdgesCDM, int64(len(cdm.edges)))

	// Steps IV and V alternate until stable: triangulation fills
	// polygons under the two-face budget, edge flips retire over-shared
	// edges (opening holes the next fill pass can close). The shared
	// forbidden set keeps the process monotone, so it terminates. Both
	// steps edit one faceGraph, which keeps every edge's triangle count
	// current across the whole loop.
	fg := newFaceGraph(cdm.edges)
	forbidden := make(map[Edge]bool)
	flips := 0
	for round := 0; round < maxRepairRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		triSpan := obs.Start(o, obs.StageTriangulate)
		added := triangulate(kn, cdg, &cdm, fg, forbidden)
		triSpan.End()
		flipSpan := obs.Start(o, obs.StageFlip)
		f := flipPass(kn.dist, fg, forbidden, maxFlipIterations)
		flipSpan.End()
		obs.Add(o, obs.StageFlip, obs.CtrFlips, int64(f))
		flips += f
		if added == 0 && f == 0 {
			break
		}
	}
	final := fg.edges()
	faces := fg.faceList()
	obs.Add(o, obs.StageSurface, obs.CtrFaces, int64(len(faces)))
	obs.Add(o, obs.StageSurface, obs.CtrBFSRuns, kn.runs())
	obs.Add(o, obs.StageSurface, obs.CtrBFSNodesVisited, kn.visited())
	obs.Add(o, obs.StageSurface, obs.CtrSPTCacheHits, kn.hits)

	s := &Surface{
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

// BuildAll constructs one surface per boundary group.
//
// Deprecated: like Build, kept as a thin wrapper; new code should call
// BuildAllContext.
func BuildAll(g *graph.Graph, groups [][]int, cfg Config) ([]*Surface, error) {
	return BuildAllContext(context.Background(), nil, g, groups, cfg)
}

// BuildAllContext constructs one surface per boundary group with
// cancellation and observation (see BuildContext).
func BuildAllContext(ctx context.Context, o obs.Observer, g *graph.Graph, groups [][]int, cfg Config) ([]*Surface, error) {
	cfg = cfg.withDefaults()
	var c groupCompactor
	surfaces := make([]*Surface, 0, len(groups))
	for gi, group := range groups {
		s, err := buildGraphGroup(ctx, o, &c, g, group, cfg)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", gi, err)
		}
		surfaces = append(surfaces, s)
	}
	return surfaces, nil
}

// evaluateQuality computes the manifold diagnostics for a mesh.
func evaluateQuality(vertices []int, edges []Edge, faces []Face) Quality {
	q := Quality{V: len(vertices), E: len(edges), F: len(faces)}
	q.Euler = q.V - q.E + q.F

	corners := faceCorners(faces)
	touched := make(map[int]bool)
	for _, e := range edges {
		touched[e[0]] = true
		touched[e[1]] = true
		switch n := len(corners[e]); {
		case n >= 3:
			q.NonManifoldEdges++
		case n < 2:
			q.BorderEdges++
		}
	}
	for _, v := range vertices {
		if !touched[v] {
			q.IsolatedVertices++
		}
	}
	q.Closed2Manifold = q.NonManifoldEdges == 0 && q.BorderEdges == 0 &&
		q.IsolatedVertices == 0 && allVertexFansClosed(vertices, faces)
	return q
}

// allVertexFansClosed verifies that each vertex's incident faces form a
// single closed fan: the "link" edges opposite the vertex make one cycle.
func allVertexFansClosed(vertices []int, faces []Face) bool {
	link := make(map[int][]Edge)
	for _, f := range faces {
		link[f[0]] = append(link[f[0]], mkEdge(f[1], f[2]))
		link[f[1]] = append(link[f[1]], mkEdge(f[0], f[2]))
		link[f[2]] = append(link[f[2]], mkEdge(f[0], f[1]))
	}
	for _, v := range vertices {
		if !isSingleCycle(link[v]) {
			return false
		}
	}
	return true
}

// isSingleCycle reports whether the edges form exactly one simple cycle.
func isSingleCycle(edges []Edge) bool {
	if len(edges) < 3 {
		return false
	}
	deg := make(map[int]int)
	adj := make(map[int][]int)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, d := range deg {
		if d != 2 {
			return false
		}
	}
	// Connected + all degree 2 + |E| == |V| ⇒ one cycle.
	if len(deg) != len(edges) {
		return false
	}
	var keys []int
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	visited := map[int]bool{keys[0]: true}
	stack := []int{keys[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[u] {
			if !visited[w] {
				visited[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(visited) == len(deg)
}
