package main

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/netgen"
	"repro/internal/shapes"
)

// smallBall is a 900-node ball: big enough for a closed boundary surface,
// small enough to detect in milliseconds.
func smallBall(t *testing.T) *netgen.Network {
	t.Helper()
	network, err := netgen.Generate(netgen.Config{
		Shape: shapes.NewBall(geom.Zero, 4), SurfaceNodes: 300, InteriorNodes: 600,
		TargetAvgDegree: 16, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return network
}

// TestPipelineCheckCatchesCorruptVerdict: two identical runs pass the
// repetition check; flipping one verdict, or one surface face, fails it.
func TestPipelineCheckCatchesCorruptVerdict(t *testing.T) {
	network := smallBall(t)
	ctx := context.Background()
	a, _, err := runPipeline(ctx, nil, network, nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runPipeline(ctx, nil, network, nil, core.Config{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := diffPipeline(a, b); err != nil {
		t.Fatalf("identical runs reported different: %v", err)
	}
	if len(a.surfs) == 0 || len(a.surfs[0].Faces) == 0 {
		t.Fatal("fixture has no surface to corrupt")
	}

	corrupt := *b.res
	corrupt.Boundary = append([]bool(nil), b.res.Boundary...)
	corrupt.Boundary[7] = !corrupt.Boundary[7]
	if err := diffPipeline(a, pipelineOut{&corrupt, b.surfs}); err == nil {
		t.Fatal("a flipped verdict passed the check")
	}

	surf := *b.surfs[0]
	surf.Faces = append(surf.Faces[:0:0], surf.Faces...)
	surf.Faces[0][0]++
	surfs := append([]*mesh.Surface{&surf}, b.surfs[1:]...)
	if err := diffPipeline(a, pipelineOut{b.res, surfs}); err == nil {
		t.Fatal("a corrupted face passed the check")
	}
}

// TestServedCheckCatchesCorruptVerdict drives a real session through a few
// deltas, checks that the served state equals a from-scratch run, and that
// a flipped served verdict or a corrupted served face fails the check.
func TestServedCheckCatchesCorruptVerdict(t *testing.T) {
	network := smallBall(t)
	client := &http.Client{}
	srv, err := startServer(client, network, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	stream := makeStream(5, network, churn, 60)
	outs := openLoop(client, srv, stream, 0, len(stream), 200, 2)
	if n := countFailed(outs); n > 0 {
		t.Fatalf("%d requests failed", n)
	}
	mir := newMirror(network)
	mir.apply(network, stream, outs)

	det, wm, err := fetchServed(client, srv)
	if err != nil {
		t.Fatal(err)
	}
	compact, stable, err := mir.compact(network.Radius)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := runPipeline(context.Background(), nil, compact, nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := diffServed(det, wm, ref, compact, stable); err != nil {
		t.Fatalf("served state differs from a from-scratch run: %v", err)
	}

	bad := det
	bad.Boundary = append([]int(nil), det.Boundary[1:]...)
	if err := diffServed(bad, wm, ref, compact, stable); err == nil {
		t.Fatal("a dropped boundary verdict passed the check")
	}
	badMesh := wm
	badMesh.Surfaces = append(wm.Surfaces[:0:0], wm.Surfaces...)
	badMesh.Surfaces[0].Faces = append([][3]int(nil), wm.Surfaces[0].Faces...)
	badMesh.Surfaces[0].Faces[0][2]++
	if err := diffServed(det, badMesh, ref, compact, stable); err == nil {
		t.Fatal("a corrupted served face passed the check")
	}
}

// TestQuantile pins the interpolation the latency metrics use.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, tc.q); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{1, 2, inf}, 1); got != inf {
		t.Errorf("a failed request must stay over every limit, got %v", got)
	}
}

// TestCrossing pins the ladder's knee estimate: a noisy dip is pooled
// away, and the crossing is interpolated between the rungs around it.
func TestCrossing(t *testing.T) {
	ys := monotone([]float64{10, 131, 49, 110, 160})
	want := []float64{10, 90, 90, 110, 160}
	for i := range want {
		if ys[i] != want[i] {
			t.Fatalf("monotone = %v, want %v", ys, want)
		}
	}
	rates := []float64{120, 140, 146, 152, 158}
	if got := crossing(rates, ys, 100); got != 149 {
		t.Errorf("crossing = %v, want 149", got)
	}
	if got := crossing(rates, []float64{1, 2, 3, 4, 5}, 100); got != 158 {
		t.Errorf("never crossing: got %v, want the top rate", got)
	}
	if got := crossing([]float64{100}, []float64{200}, 100); got != 50 {
		t.Errorf("first rung over the limit: got %v, want 50", got)
	}
}
