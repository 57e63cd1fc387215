package mesh

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/shapes"
	"repro/internal/sim"
)

// diffFixture yields the boundary groups of one detected deployment.
type diffFixture struct {
	name   string
	net    *netgen.Network
	groups [][]int
}

func detectGroups(t *testing.T, name string, shape shapes.Shape, surface, interior int, seed int64, faults sim.FaultConfig) diffFixture {
	t.Helper()
	net, err := netgen.Generate(netgen.Config{
		Shape:           shape,
		SurfaceNodes:    surface,
		InteriorNodes:   interior,
		TargetAvgDegree: 18,
		Seed:            seed,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := core.Detect(net, nil, core.Config{Faults: faults})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(res.Groups) == 0 {
		t.Fatalf("%s: no boundary groups detected", name)
	}
	return diffFixture{name: name, net: net, groups: res.Groups}
}

// diffFixtures builds the seeded sphere/cube/torus deployments, the cube
// additionally under fault injection (message loss, duplication, and node
// crashes perturb the detected group the mesh is built from).
func diffFixtures(t *testing.T) []diffFixture {
	t.Helper()
	box, err := shapes.NewBoxWithHoles(geom.V(0, 0, 0), geom.V(7, 7, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := shapes.NewTorus(5.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	return []diffFixture{
		detectGroups(t, "sphere", shapes.NewBall(geom.Zero, 4), 400, 900, 60, sim.FaultConfig{}),
		detectGroups(t, "cube", box, 450, 950, 61, sim.FaultConfig{}),
		detectGroups(t, "torus", tor, 700, 1100, 3, sim.FaultConfig{}),
		detectGroups(t, "cube-faulty", box, 450, 950, 61, sim.FaultConfig{
			Seed:          7,
			DropRate:      0.05,
			DuplicateRate: 0.02,
			CrashRate:     0.005,
		}),
	}
}

func edgesEqual(a, b []Edge) bool {
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

func facesEqual(a, b []Face) bool {
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

func intsEqual(a, b []int) bool {
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

// compareSurfaces asserts two surfaces are bit-identical in every output
// the pipeline exposes: landmarks, association, CDG, CDM, final edge set,
// triangle set, flip count, and every realized virtual-edge path.
func compareSurfaces(t *testing.T, label string, want, got *Surface) {
	t.Helper()
	if !intsEqual(want.Landmarks.IDs, got.Landmarks.IDs) {
		t.Fatalf("%s: landmark IDs differ: %v vs %v", label, want.Landmarks.IDs, got.Landmarks.IDs)
	}
	if !intsEqual(want.Landmarks.Assoc, got.Landmarks.Assoc) {
		t.Fatalf("%s: associations differ", label)
	}
	if !intsEqual(want.Landmarks.Hops, got.Landmarks.Hops) {
		t.Fatalf("%s: association hop distances differ", label)
	}
	if !edgesEqual(want.CDG, got.CDG) {
		t.Fatalf("%s: CDG differs (%d vs %d edges)", label, len(want.CDG), len(got.CDG))
	}
	if !edgesEqual(want.CDM, got.CDM) {
		t.Fatalf("%s: CDM differs (%d vs %d edges)", label, len(want.CDM), len(got.CDM))
	}
	if !edgesEqual(want.Edges, got.Edges) {
		t.Fatalf("%s: final edge sets differ (%d vs %d)", label, len(want.Edges), len(got.Edges))
	}
	if !facesEqual(want.Faces, got.Faces) {
		t.Fatalf("%s: triangle sets differ (%d vs %d)", label, len(want.Faces), len(got.Faces))
	}
	if want.Flips != got.Flips {
		t.Fatalf("%s: flip counts differ: %d vs %d", label, want.Flips, got.Flips)
	}
	if len(want.Paths) != len(got.Paths) {
		t.Fatalf("%s: path maps differ in size: %d vs %d", label, len(want.Paths), len(got.Paths))
	}
	for e, p := range want.Paths {
		if !intsEqual(p, got.Paths[e]) {
			t.Fatalf("%s: path for edge %v differs: %v vs %v", label, e, p, got.Paths[e])
		}
	}
	if want.Quality != got.Quality {
		t.Fatalf("%s: quality differs: %v vs %v", label, want.Quality, got.Quality)
	}
}

// TestSurfaceMatchesReferenceImplementation is the rewrite's differential
// gate: the CSR+SPT pipeline must reproduce the pre-kernel implementation
// bit for bit on every detected group of every fixture — sphere, cube, and
// torus deployments, the cube also under fault-injected detection — with
// the shortest-path trees both on and off.
func TestSurfaceMatchesReferenceImplementation(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fixtures are expensive")
	}
	for _, fx := range diffFixtures(t) {
		for gi, group := range fx.groups {
			label := fmt.Sprintf("%s/group%d", fx.name, gi)
			want, err := refBuild(fx.net.G, group, Config{K: 3})
			if err != nil {
				t.Fatalf("%s: reference build: %v", label, err)
			}
			cached, err := Build(fx.net.G, group, Config{K: 3})
			if err != nil {
				t.Fatalf("%s: kernel build: %v", label, err)
			}
			compareSurfaces(t, label+"/spt-on", want, cached)
			uncached, err := Build(fx.net.G, group, Config{K: 3, noSPT: true})
			if err != nil {
				t.Fatalf("%s: uncached build: %v", label, err)
			}
			compareSurfaces(t, label+"/spt-off", want, uncached)
		}
	}
}

// TestSurfaceSPTPathsBitIdentical pins the narrower property the on-demand
// trees rest on: for every landmark pair of a real detected group, queried
// in an order that pauses and resumes each tree many times, the tree's
// extracted path and distance equal graph.ShortestPath exactly.
func TestSurfaceSPTPathsBitIdentical(t *testing.T) {
	fx := detectGroups(t, "sphere", shapes.NewBall(geom.Zero, 4), 350, 800, 62, sim.FaultConfig{})
	g := fx.net.G
	members := sortedMembers(fx.groups[0])
	csr, err := compactGroup(&groupCompactor{}, g.Len(), members, func(v int) []int { return g.Adj[v] })
	if err != nil {
		t.Fatal(err)
	}
	kn := newSurfKernel(csr, false)
	lms, err := electLandmarks(kn, 3)
	if err != nil {
		t.Fatal(err)
	}
	inGroup := make([]bool, g.Len())
	for _, v := range members {
		inGroup[v] = true
	}
	member := graph.InSet(inGroup)
	for i, a := range lms.IDs {
		for _, b := range lms.IDs[i+1:] {
			want := g.ShortestPath(members[a], members[b], member)
			got := kn.path(mkEdge(a, b))
			if len(want) != len(got) {
				t.Fatalf("path %d-%d: fresh %v, tree %v", a, b, want, got)
			}
			for j, u := range got {
				if members[u] != want[j] {
					t.Fatalf("path %d-%d: fresh %v, tree %v", a, b, want, got)
				}
			}
			if want != nil {
				if d := kn.dist(a, b); d != len(want)-1 {
					t.Fatalf("dist %d-%d: %d, want %d", a, b, d, len(want)-1)
				}
			}
		}
	}
	if kn.hits == 0 {
		t.Fatal("no query was answered from a tree")
	}
}
