package embed

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/netgen"
	"repro/internal/shapes"
)

func sphereSurface(t *testing.T) (*netgen.Network, *mesh.Surface) {
	t.Helper()
	net, err := netgen.Generate(netgen.Config{
		Shape:           shapes.NewBall(geom.Zero, 4),
		SurfaceNodes:    500,
		InteriorNodes:   1500,
		TargetAvgDegree: 18,
		Seed:            60,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Detect(net, nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := mesh.Build(net.G, res.Groups[0], mesh.Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	return net, s
}

func TestSurfaceEmbeddingSphere(t *testing.T) {
	net, s := sphereSurface(t)
	emb, err := Surface(net.G, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Nodes) != len(s.Group) {
		t.Fatalf("embedded %d nodes, group has %d", len(emb.Nodes), len(s.Group))
	}
	for _, v := range emb.Nodes {
		p, ok := emb.Position(v)
		if !ok {
			t.Fatalf("node %d has no position", v)
		}
		if !p.IsFinite() {
			t.Fatalf("node %d has non-finite position %v", v, p)
		}
	}
	if _, ok := emb.Position(-1); ok {
		t.Error("position for a non-member")
	}

	// Connectivity-only embedding of a sphere boundary should land
	// within a couple of radio ranges RMSD of truth after scaled rigid
	// alignment — hop quantization bounds how well it can do.
	rmsd, scale, err := emb.Distortion(func(n int) geom.Vec3 { return net.Nodes[n].Pos })
	if err != nil {
		t.Fatal(err)
	}
	if scale <= 0 {
		t.Errorf("scale = %v", scale)
	}
	if rmsd > 2.5*net.Radius {
		t.Errorf("distortion rmsd = %.2f (%.2f radio ranges), too high", rmsd, rmsd/net.Radius)
	}
}

func TestSurfaceEmbeddingValidation(t *testing.T) {
	net, s := sphereSurface(t)
	// Too few landmarks.
	small := &mesh.Surface{
		Group:     s.Group,
		Landmarks: &mesh.Landmarks{IDs: s.Landmarks.IDs[:3]},
	}
	if _, err := Surface(net.G, small); err != ErrTooFewLandmarks {
		t.Errorf("err = %v, want ErrTooFewLandmarks", err)
	}
}

func TestSurfaceEmbeddingDisconnected(t *testing.T) {
	// Two disjoint triangles pretending to be one group: landmark pairs
	// across the split are unreachable.
	g := graph.New(8)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(4, 5)
	g.AddEdge(5, 6)
	g.AddEdge(6, 4)
	s := &mesh.Surface{
		Group:     []int{0, 1, 2, 4, 5, 6},
		Landmarks: &mesh.Landmarks{IDs: []int{0, 1, 4, 5}},
	}
	if _, err := Surface(g, s); err != ErrDisconnected {
		t.Errorf("err = %v, want ErrDisconnected", err)
	}
}

func TestDistortionDegenerate(t *testing.T) {
	e := &Embedding{Nodes: []int{0, 1}, Coords: make([]geom.Vec3, 2)}
	if _, _, err := e.Distortion(func(int) geom.Vec3 { return geom.Zero }); err == nil {
		t.Error("too-few-nodes distortion accepted")
	}
	e3 := &Embedding{
		Nodes:  []int{0, 1, 2},
		Coords: make([]geom.Vec3, 3), // all at the origin: degenerate
	}
	if _, _, err := e3.Distortion(func(int) geom.Vec3 { return geom.Zero }); err == nil {
		t.Error("degenerate embedding accepted")
	}
}
