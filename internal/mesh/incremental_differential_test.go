package mesh

// Differential battery for the incremental surface engine: across a
// seeded join/move/leave/crash delta stream, every surface the engine
// serves — cached or rebuilt — must be bit-identical to a from-scratch
// BuildAll over the assembled active network, under the stable-ID
// renaming: same landmarks, association tables, CDG/CDM/edge sets, faces,
// flip counts, realized paths, quality diagnostics, and smoothing output.
// This is the suite the package comment of incremental.go points at; it
// is what licenses serving cached surfaces across deltas. The matrix
// mirrors core's incremental_differential_test.go: three worlds x 50
// seeded deltas x worker widths x SPT cache on/off.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/shapes"
)

var (
	meshWorldsOnce sync.Once
	meshWorldsVal  []struct {
		name string
		net  *netgen.Network
	}
	meshWorldsErr error
)

// meshWorlds is the same sphere/cube/torus trio as the core incremental
// suite, rebuilt here because the two packages cannot share test fixtures.
func meshWorlds(t *testing.T) []struct {
	name string
	net  *netgen.Network
} {
	t.Helper()
	meshWorldsOnce.Do(func() {
		box, err := shapes.NewBoxWithHoles(geom.V(0, 0, 0), geom.V(6, 6, 6), nil)
		if err != nil {
			meshWorldsErr = err
			return
		}
		tor, err := shapes.NewTorus(5, 2)
		if err != nil {
			meshWorldsErr = err
			return
		}
		specs := []struct {
			name     string
			shape    shapes.Shape
			surf, in int
			seed     int64
		}{
			{"sphere", shapes.NewBall(geom.Zero, 4), 140, 260, 62},
			{"cube", box, 150, 280, 63},
			{"torus", tor, 220, 260, 5},
		}
		for _, sp := range specs {
			net, err := netgen.Generate(netgen.Config{
				Shape:           sp.shape,
				SurfaceNodes:    sp.surf,
				InteriorNodes:   sp.in,
				TargetAvgDegree: 16,
				Seed:            sp.seed,
			})
			if err != nil {
				meshWorldsErr = fmt.Errorf("%s: %w", sp.name, err)
				return
			}
			meshWorldsVal = append(meshWorldsVal, struct {
				name string
				net  *netgen.Network
			}{sp.name, net})
		}
	})
	if meshWorldsErr != nil {
		t.Fatal(meshWorldsErr)
	}
	return meshWorldsVal
}

// meshDeltaScript replays a seeded delta stream against a core engine,
// feeding each delta's topology change into the mesh engine and diffing
// the served surfaces against a from-scratch rebuild after every step.
func meshDeltaScript(t *testing.T, inc *core.Incremental, eng *Incremental, cfg Config, seed int64, steps, minActive int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := inc.ActiveIDs()
	lo, hi := inc.PositionAt(ids[0]), inc.PositionAt(ids[0])
	for _, s := range ids {
		p := inc.PositionAt(s)
		lo = geom.V(min(lo.X, p.X), min(lo.Y, p.Y), min(lo.Z, p.Z))
		hi = geom.V(max(hi.X, p.X), max(hi.Y, p.Y), max(hi.Z, p.Z))
	}
	pad := inc.Radius() / 2
	lo = lo.Add(geom.V(-pad, -pad, -pad))
	hi = hi.Add(geom.V(pad, pad, pad))
	randIn := func() geom.Vec3 {
		return geom.V(
			lo.X+rng.Float64()*(hi.X-lo.X),
			lo.Y+rng.Float64()*(hi.Y-lo.Y),
			lo.Z+rng.Float64()*(hi.Z-lo.Z),
		)
	}
	pickActive := func() int {
		ids := inc.ActiveIDs()
		return ids[rng.Intn(len(ids))]
	}
	var served []*Surface
	for step := 0; step < steps; step++ {
		var d core.Delta
		switch p := rng.Float64(); {
		case p < 0.30:
			d = core.Delta{Op: core.DeltaJoin, Pos: randIn()}
		case p < 0.70:
			id := pickActive()
			pos := inc.PositionAt(id)
			if rng.Float64() < 0.1 {
				pos = randIn()
			} else {
				r := inc.Radius()
				pos = pos.Add(geom.V(
					(rng.Float64()-0.5)*1.2*r,
					(rng.Float64()-0.5)*1.2*r,
					(rng.Float64()-0.5)*1.2*r,
				))
			}
			d = core.Delta{Op: core.DeltaMove, Node: id, Pos: pos}
		case p < 0.85 && inc.ActiveCount() > minActive:
			d = core.Delta{Op: core.DeltaLeave, Node: pickActive()}
		case inc.ActiveCount() > minActive:
			d = core.Delta{Op: core.DeltaCrash, Node: pickActive()}
		default:
			d = core.Delta{Op: core.DeltaJoin, Pos: randIn()}
		}
		id, err := inc.Apply(d)
		if err != nil {
			t.Fatalf("step %d (%v): %v", step, d.Op, err)
		}
		node, peers := inc.LastTopology()
		if node != id {
			t.Fatalf("step %d: LastTopology node %d, applied %d", step, node, id)
		}
		eng.Invalidate(nil, node, peers)
		served, err = eng.Surfaces(context.Background(), nil, inc, inc.GroupsView(), served[:0])
		if err != nil {
			t.Fatalf("step %d (%v): serve: %v", step, d.Op, err)
		}
		diffMeshIncremental(t, fmt.Sprintf("step %d (%v node %d)", step, d.Op, id), inc, cfg, served)
	}
	st := eng.Stats()
	t.Logf("cache: %d hits, %d misses, %d entries", st.Hits, st.Misses, st.Entries)
	if st.Hits == 0 && steps >= 25 {
		t.Errorf("no cache hits over %d deltas — the engine is rebuilding everything", steps)
	}
}

// diffMeshIncremental rebuilds every group surface from scratch on the
// assembled active network and fails unless the served surfaces match bit
// for bit under the stable-ID renaming, smoothing output included.
func diffMeshIncremental(t *testing.T, label string, inc *core.Incremental, cfg Config, served []*Surface) {
	t.Helper()
	net, err := netgen.Assemble(inc.ActiveNodes(), inc.Radius())
	if err != nil {
		t.Fatalf("%s: assemble: %v", label, err)
	}
	ids := inc.ActiveIDs()
	dense := make([]int, inc.Len())
	for i := range dense {
		dense[i] = -1
	}
	for k, s := range ids {
		dense[s] = k
	}
	groups := inc.Groups()
	if len(served) != len(groups) {
		t.Fatalf("%s: served %d surfaces for %d groups", label, len(served), len(groups))
	}
	denseGroups := make([][]int, len(groups))
	for i, g := range groups {
		dg := make([]int, len(g))
		for k, s := range g {
			if dense[s] < 0 {
				t.Fatalf("%s: group %d holds departed node %d", label, i, s)
			}
			dg[k] = dense[s]
		}
		denseGroups[i] = dg
	}
	want, err := BuildAll(net.G, denseGroups, cfg)
	if err != nil {
		t.Fatalf("%s: reference build: %v", label, err)
	}
	for i, w := range want {
		// renameSurface maps every field dense→stable via ids, but it is
		// built for compact rebuilds where the renaming list IS the group —
		// here it is the whole active set, so restore the true group list.
		renameSurface(w, ids, inc.Len())
		w.Group = append([]int(nil), groups[i]...)
		diffSurfacePair(t, fmt.Sprintf("%s group %d", label, i), served[i], w)
		// Smoothing output: position-dependent, recomputed per serve —
		// must agree exactly, at both smoothing widths.
		pos := func(u int) geom.Vec3 { return inc.PositionAt(u) }
		gotPos := RefinedPositions(served[i], pos, 0.7)
		wantPos := RefinedPositions(w, pos, 0.7)
		gotPosW := RefinedPositionsWorkers(served[i], pos, 0.7, 4)
		if len(gotPos) != len(wantPos) || len(gotPosW) != len(wantPos) {
			t.Fatalf("%s group %d: refined position count %d/%d, want %d", label, i, len(gotPos), len(gotPosW), len(wantPos))
		}
		for lm, p := range wantPos {
			if gotPos[lm] != p {
				t.Fatalf("%s group %d: refined position of %d = %v, want %v", label, i, lm, gotPos[lm], p)
			}
			if gotPosW[lm] != p {
				t.Fatalf("%s group %d: parallel refined position of %d = %v, want %v", label, i, lm, gotPosW[lm], p)
			}
		}
	}
}

// diffSurfacePair compares two stable-ID surfaces field by field.
func diffSurfacePair(t *testing.T, label string, got, want *Surface) {
	t.Helper()
	if len(got.Group) != len(want.Group) {
		t.Fatalf("%s: group size %d, want %d", label, len(got.Group), len(want.Group))
	}
	for i := range want.Group {
		if got.Group[i] != want.Group[i] {
			t.Fatalf("%s: group member %d = %d, want %d", label, i, got.Group[i], want.Group[i])
		}
	}
	if len(got.Landmarks.IDs) != len(want.Landmarks.IDs) {
		t.Fatalf("%s: %d landmarks, want %d", label, len(got.Landmarks.IDs), len(want.Landmarks.IDs))
	}
	for i := range want.Landmarks.IDs {
		if got.Landmarks.IDs[i] != want.Landmarks.IDs[i] {
			t.Fatalf("%s: landmark %d = %d, want %d", label, i, got.Landmarks.IDs[i], want.Landmarks.IDs[i])
		}
	}
	if len(got.Landmarks.Assoc) != len(want.Landmarks.Assoc) {
		t.Fatalf("%s: assoc table len %d, want %d", label, len(got.Landmarks.Assoc), len(want.Landmarks.Assoc))
	}
	for u := range want.Landmarks.Assoc {
		if got.Landmarks.Assoc[u] != want.Landmarks.Assoc[u] {
			t.Fatalf("%s: assoc[%d] = %d, want %d", label, u, got.Landmarks.Assoc[u], want.Landmarks.Assoc[u])
		}
		if got.Landmarks.Hops[u] != want.Landmarks.Hops[u] {
			t.Fatalf("%s: hops[%d] = %d, want %d", label, u, got.Landmarks.Hops[u], want.Landmarks.Hops[u])
		}
	}
	diffEdgeList(t, label+": cdg", got.CDG, want.CDG)
	diffEdgeList(t, label+": cdm", got.CDM, want.CDM)
	diffEdgeList(t, label+": edges", got.Edges, want.Edges)
	if len(got.Faces) != len(want.Faces) {
		t.Fatalf("%s: %d faces, want %d", label, len(got.Faces), len(want.Faces))
	}
	for i := range want.Faces {
		if got.Faces[i] != want.Faces[i] {
			t.Fatalf("%s: face %d = %v, want %v", label, i, got.Faces[i], want.Faces[i])
		}
	}
	if got.Flips != want.Flips {
		t.Fatalf("%s: %d flips, want %d", label, got.Flips, want.Flips)
	}
	if got.Quality != want.Quality {
		t.Fatalf("%s: quality %v, want %v", label, got.Quality, want.Quality)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("%s: %d paths, want %d", label, len(got.Paths), len(want.Paths))
	}
	for e, wp := range want.Paths {
		gp, ok := got.Paths[e]
		if !ok {
			t.Fatalf("%s: path for %v missing", label, e)
		}
		if len(gp) != len(wp) {
			t.Fatalf("%s: path %v len %d, want %d", label, e, len(gp), len(wp))
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("%s: path %v node %d = %d, want %d", label, e, i, gp[i], wp[i])
			}
		}
	}
}

func diffEdgeList(t *testing.T, label string, got, want []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestMeshIncrementalDifferential is the acceptance battery: sphere, cube
// and torus worlds, 50 seeded deltas each, with the SPT cache on and off,
// from-scratch surface diff after every single delta. Surface construction
// is serial, so there is no worker dimension; the subtests keep their
// w1_ names.
func TestMeshIncrementalDifferential(t *testing.T) {
	worlds := meshWorlds(t)
	modes := []bool{false, true} // noSPT
	steps := 50
	if testing.Short() {
		modes = modes[:1]
		steps = 15
	}
	for _, world := range worlds {
		for _, noSPT := range modes {
			t.Run(fmt.Sprintf("%s/w1_spt%v", world.name, !noSPT), func(t *testing.T) {
				cfg := Config{noSPT: noSPT}
				inc, err := core.NewIncremental(world.net, core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				eng := NewIncremental(cfg)
				served, err := eng.Surfaces(context.Background(), nil, inc, inc.GroupsView(), nil)
				if err != nil {
					t.Fatal(err)
				}
				diffMeshIncremental(t, "seed", inc, cfg, served)
				meshDeltaScript(t, inc, eng, cfg, 1010+b2i(noSPT), steps, 50)
			})
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
