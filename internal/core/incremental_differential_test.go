package core

// Differential battery for the incremental engine: after EVERY delta, the
// engine's cached detection state must be bit-identical to a from-scratch
// DetectContext run over the current active node set — same verdict bits,
// same fragment sizes, same work counters, same group labels — across the
// worker and shard matrix. This is the suite the package comment of
// incremental.go points at; it is what licenses the dirty-region repair.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/shapes"
	"repro/internal/sim"
)

// incWorld is one deployment for the incremental differential battery —
// the same sphere/cube/torus trio as the sharded suite, sized down so a
// per-delta full recompute stays affordable.
type incWorld struct {
	name string
	net  *netgen.Network
}

var (
	incWorldsOnce sync.Once
	incWorldsVal  []incWorld
	incWorldsErr  error
)

func incWorlds(t *testing.T) []incWorld {
	t.Helper()
	incWorldsOnce.Do(func() {
		box, err := shapes.NewBoxWithHoles(geom.V(0, 0, 0), geom.V(6, 6, 6), nil)
		if err != nil {
			incWorldsErr = err
			return
		}
		tor, err := shapes.NewTorus(5, 2)
		if err != nil {
			incWorldsErr = err
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
				incWorldsErr = fmt.Errorf("%s: %w", sp.name, err)
				return
			}
			incWorldsVal = append(incWorldsVal, incWorld{name: sp.name, net: net})
		}
	})
	if incWorldsErr != nil {
		t.Fatal(incWorldsErr)
	}
	return incWorldsVal
}

// deltaScript replays a seeded stream of join/move/leave/crash deltas
// against the engine, diffing against a full recompute after every step.
// minActive floors the departures so the network never thins out into
// triviality.
func deltaScript(t *testing.T, inc *Incremental, cfg Config, seed int64, steps, minActive int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lo, hi := bboxOf(inc)
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
	for step := 0; step < steps; step++ {
		var d Delta
		switch p := rng.Float64(); {
		case p < 0.30:
			d = Delta{Op: DeltaJoin, Pos: randIn()}
		case p < 0.70:
			id := pickActive()
			pos := inc.pos[id]
			if rng.Float64() < 0.1 {
				pos = randIn() // occasional teleport across the world
			} else {
				r := inc.Radius()
				pos = pos.Add(geom.V(
					(rng.Float64()-0.5)*1.2*r,
					(rng.Float64()-0.5)*1.2*r,
					(rng.Float64()-0.5)*1.2*r,
				))
			}
			d = Delta{Op: DeltaMove, Node: id, Pos: pos}
		case p < 0.85 && inc.ActiveCount() > minActive:
			d = Delta{Op: DeltaLeave, Node: pickActive()}
		case inc.ActiveCount() > minActive:
			d = Delta{Op: DeltaCrash, Node: pickActive()}
		default:
			d = Delta{Op: DeltaJoin, Pos: randIn()}
		}
		wantID := -1
		if d.Op == DeltaJoin {
			wantID = inc.Len()
		}
		id, err := inc.Apply(d)
		if err != nil {
			t.Fatalf("step %d (%v): %v", step, d.Op, err)
		}
		if wantID >= 0 && id != wantID {
			t.Fatalf("step %d: join assigned ID %d, want next stable ID %d", step, id, wantID)
		}
		diffIncremental(t, fmt.Sprintf("step %d (%v node %d)", step, d.Op, id), inc, cfg)
	}
}

// diffIncremental recomputes the active network from scratch and fails
// unless the engine's snapshot matches bit for bit under the stable-ID
// renaming.
func diffIncremental(t *testing.T, label string, inc *Incremental, cfg Config) {
	t.Helper()
	net, err := netgen.Assemble(inc.ActiveNodes(), inc.Radius())
	if err != nil {
		t.Fatalf("%s: assemble: %v", label, err)
	}
	full, err := Detect(net, nil, cfg)
	if err != nil {
		t.Fatalf("%s: full recompute: %v", label, err)
	}
	snap := inc.Snapshot()
	ids := inc.ActiveIDs()
	if len(ids) != len(full.UBF) {
		t.Fatalf("%s: active count %d != recompute %d", label, len(ids), len(full.UBF))
	}
	activeSet := make([]bool, inc.Len())
	for k, s := range ids {
		activeSet[s] = true
		if snap.UBF[s] != full.UBF[k] {
			t.Fatalf("%s: UBF[%d] = %v, full %v", label, s, snap.UBF[s], full.UBF[k])
		}
		if snap.Boundary[s] != full.Boundary[k] {
			t.Fatalf("%s: Boundary[%d] = %v, full %v", label, s, snap.Boundary[s], full.Boundary[k])
		}
		if snap.FragmentSize[s] != full.FragmentSize[k] {
			t.Fatalf("%s: FragmentSize[%d] = %d, full %d", label, s, snap.FragmentSize[s], full.FragmentSize[k])
		}
		if snap.BallsTested[s] != full.BallsTested[k] {
			t.Fatalf("%s: BallsTested[%d] = %d, full %d", label, s, snap.BallsTested[s], full.BallsTested[k])
		}
		if snap.NodesChecked[s] != full.NodesChecked[k] {
			t.Fatalf("%s: NodesChecked[%d] = %d, full %d", label, s, snap.NodesChecked[s], full.NodesChecked[k])
		}
		wantLabel := full.GroupLabel[k]
		if wantLabel != sim.NoGroup {
			wantLabel = ids[wantLabel] // min-ID label under the monotone renaming
		}
		if snap.GroupLabel[s] != wantLabel {
			t.Fatalf("%s: GroupLabel[%d] = %d, full %d", label, s, snap.GroupLabel[s], wantLabel)
		}
	}
	for s, a := range activeSet {
		if a {
			continue
		}
		if snap.UBF[s] || snap.Boundary[s] || snap.FragmentSize[s] != 0 ||
			snap.BallsTested[s] != 0 || snap.NodesChecked[s] != 0 || snap.GroupLabel[s] != sim.NoGroup {
			t.Fatalf("%s: departed node %d holds detection state", label, s)
		}
	}
	if len(snap.Groups) != len(full.Groups) {
		t.Fatalf("%s: %d groups, full %d", label, len(snap.Groups), len(full.Groups))
	}
	for g := range full.Groups {
		if len(snap.Groups[g]) != len(full.Groups[g]) {
			t.Fatalf("%s: group %d size %d, full %d", label, g, len(snap.Groups[g]), len(full.Groups[g]))
		}
		for k, m := range full.Groups[g] {
			if snap.Groups[g][k] != ids[m] {
				t.Fatalf("%s: group %d member %d = %d, full %d", label, g, k, snap.Groups[g][k], ids[m])
			}
		}
	}
}

func bboxOf(inc *Incremental) (geom.Vec3, geom.Vec3) {
	ids := inc.ActiveIDs()
	lo, hi := inc.pos[ids[0]], inc.pos[ids[0]]
	for _, s := range ids {
		p := inc.pos[s]
		lo = geom.V(min(lo.X, p.X), min(lo.Y, p.Y), min(lo.Z, p.Z))
		hi = geom.V(max(hi.X, p.X), max(hi.Y, p.Y), max(hi.Z, p.Z))
	}
	return lo, hi
}

// TestIncrementalDifferential is the acceptance battery: sphere, cube and
// torus worlds, >= 50 seeded deltas each, engines seeded at every
// (workers, shards) in {1,4} x {1,4}, full-recompute diff after every
// single delta. Every registered detector is one more input: detectors
// without CapIncremental take the engine's full-recompute repair, on a
// shorter script since each of their deltas is a whole detection.
func TestIncrementalDifferential(t *testing.T) {
	worlds := incWorlds(t)
	matrix := []struct{ workers, shards int }{{1, 1}, {4, 4}, {1, 4}, {4, 1}}
	if testing.Short() {
		matrix = matrix[:2]
	}
	steps := 50
	for _, world := range worlds {
		for _, m := range matrix {
			t.Run(fmt.Sprintf("%s/w%d_s%d", world.name, m.workers, m.shards), func(t *testing.T) {
				cfg := Config{Workers: m.workers, Shards: m.shards}
				inc, err := NewIncremental(world.net, cfg)
				if err != nil {
					t.Fatal(err)
				}
				diffIncremental(t, "seed", inc, cfg)
				deltaScript(t, inc, cfg, 1000+int64(m.workers*10+m.shards), steps, 50)
			})
		}
		for _, name := range DetectorNames() {
			det, _ := LookupDetector(name)
			n := steps
			if !det.Caps().Has(CapIncremental) {
				n = steps / 2
			}
			t.Run(world.name+"/"+name, func(t *testing.T) {
				cfg := Config{Detector: name, Workers: 2}
				inc, err := NewIncremental(world.net, cfg)
				if err != nil {
					t.Fatal(err)
				}
				diffIncremental(t, "seed", inc, cfg)
				deltaScript(t, inc, cfg, 2000, n, 50)
			})
		}
	}
}

// TestIncrementalDifferentialIFFDisabled covers the IFFThreshold<0 repair
// path, where the boundary is the raw UBF verdict and fragment sizes stay
// zero.
func TestIncrementalDifferentialIFFDisabled(t *testing.T) {
	world := incWorlds(t)[0]
	cfg := Config{IFFThreshold: -1}
	inc, err := NewIncremental(world.net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffIncremental(t, "seed", inc, cfg)
	deltaScript(t, inc, cfg, 77, 25, 50)
}

// TestIncrementalDifferentialOneHop covers ScopeOneHop, which shrinks the
// UBF dirty ball to a single hop.
func TestIncrementalDifferentialOneHop(t *testing.T) {
	world := incWorlds(t)[1]
	cfg := Config{Scope: ScopeOneHop}
	inc, err := NewIncremental(world.net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffIncremental(t, "seed", inc, cfg)
	deltaScript(t, inc, cfg, 78, 25, 50)
}
