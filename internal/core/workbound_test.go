package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/ranging"
	"repro/internal/shapes"
)

// TestFig1DetectWorkBound is a work guard that does not depend on wall
// time: detection on the paper's Fig. 1 network (1800 surface + 2410
// interior nodes, seed 101) under true coordinates.
//
//   - The IFF and grouping message and round counts are protocol facts of
//     this network and must not move at all.
//   - UBF's balls tested and nodes checked are capped at their current
//     values; a PR that lowers them lowers the caps.
//   - Detection allocates about 1.3 MB here. The cap of 1.6 MB leaves room
//     for worker-count and toolchain jitter but not for a return to
//     per-round message buffers, which allocated 587 MB on this network.
func TestFig1DetectWorkBound(t *testing.T) {
	net := fig1Network(t)
	cfg := Config{Workers: 2}

	m := &obs.Mem{}
	res, err := DetectContext(context.Background(), m, net, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact := []struct {
		name      string
		got, want int64
	}{
		{"IFF messages", int64(res.IFFMessages), 1032898},
		{"IFF msgs_delivered", m.Total(obs.StageIFF, obs.CtrMsgsDelivered), 1032898},
		{"IFF rounds", m.Total(obs.StageIFF, obs.CtrFloodRounds), 3},
		{"grouping messages", int64(res.GroupingMessages), 145737},
		{"grouping msgs_delivered", m.Total(obs.StageGrouping, obs.CtrMsgsDelivered), 145737},
		{"grouping rounds", m.Total(obs.StageGrouping, obs.CtrFloodRounds), 23},
	}
	for _, c := range exact {
		if c.got != c.want {
			t.Errorf("%s = %d, want exactly %d", c.name, c.got, c.want)
		}
	}
	capped := []struct {
		name     string
		got, max int64
	}{
		{"UBF balls_tested", m.Total(obs.StageUBF, obs.CtrBallsTested), 760221},
		{"UBF nodes_checked", m.Total(obs.StageUBF, obs.CtrNodesChecked), 2913461},
	}
	for _, c := range capped {
		if c.got > c.max {
			t.Errorf("%s = %d, want <= %d", c.name, c.got, c.max)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Detect(net, nil, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const maxBytes = 1_600_000
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxBytes {
		t.Errorf("detection allocated %d bytes, want <= %d", alloc, maxBytes)
	} else {
		t.Logf("detection allocated %d bytes (cap %d)", alloc, maxBytes)
	}
}

// TestFig1MDSDetectWorkBound is the MDS counterpart of
// TestFig1DetectWorkBound: detection on the Fig. 1 network with 20%
// uniform ranging error (seed 1), so every node decides on its own MDS
// frame. It runs at one and two workers; both must stay under the same
// caps, since UBF's counters do not depend on the worker count.
//
//   - UBF's balls tested and nodes checked are capped at their current
//     values; a PR that lowers them lowers the caps.
//   - Detection allocates about 157 MB here, nearly all of it in the
//     frames. The cap sits about 10% above that.
//
// IFF and grouping counts are not pinned here: under MDS they follow the
// frame verdicts, and their contract is set with the fault-free evaluators.
func TestFig1MDSDetectWorkBound(t *testing.T) {
	net := fig1Network(t)
	meas := net.Measure(ranging.UniformAdditive{Fraction: 0.2}, 1)
	for _, workers := range []int{1, 2} {
		m := &obs.Mem{}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := DetectContext(context.Background(), m, net, meas, Config{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		capped := []struct {
			name     string
			got, max int64
		}{
			{"UBF balls_tested", m.Total(obs.StageUBF, obs.CtrBallsTested), 962105},
			{"UBF nodes_checked", m.Total(obs.StageUBF, obs.CtrNodesChecked), 4455756},
			{"detection bytes", int64(after.TotalAlloc - before.TotalAlloc), 172_700_000},
		}
		for _, c := range capped {
			if c.got > c.max {
				t.Errorf("workers=%d: %s = %d, want <= %d", workers, c.name, c.got, c.max)
			} else {
				t.Logf("workers=%d: %s = %d (cap %d)", workers, c.name, c.got, c.max)
			}
		}
	}
}

// fig1Network generates the paper's Fig. 1 network (1800 surface + 2410
// interior nodes around a spherical hole, seed 101).
func fig1Network(t *testing.T) *netgen.Network {
	t.Helper()
	shape, err := shapes.NewBoxWithHoles(geom.V(0, 0, 0), geom.V(13, 13, 13),
		[]geom.Sphere{{Center: geom.V(6.5, 6.5, 6.5), Radius: 2.3}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := netgen.Generate(netgen.Config{Shape: shape, SurfaceNodes: 1800, InteriorNodes: 2410, TargetAvgDegree: 18.8, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestIncrementalDeltaWorkBound is the delta path's work guard: a fixed
// script of 50 move/move-home pairs (each axis displaced by up to 0.1 R)
// on the Fig. 1 network under true coordinates. It caps the summed dirty
// region counters and the balls tested by refit nodes at their current
// values; a PR that shrinks the dirty sets lowers the caps. Moving every
// node home restores the seeded topology, so the engine must end on the
// seeded verdicts.
func TestIncrementalDeltaWorkBound(t *testing.T) {
	net := fig1Network(t)
	inc, err := NewIncremental(net, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seeded := inc.Snapshot()
	rng := rand.New(rand.NewSource(4))
	r := 0.1 * net.Radius
	m := &obs.Mem{}
	for k := 0; k < 50; k++ {
		u := rng.Intn(net.Len())
		home := inc.PositionAt(u)
		away := home.Add(geom.V((2*rng.Float64()-1)*r, (2*rng.Float64()-1)*r, (2*rng.Float64()-1)*r))
		for _, p := range []geom.Vec3{away, home} {
			if _, err := inc.ApplyContext(context.Background(), m, Delta{Op: DeltaMove, Node: u, Pos: p}); err != nil {
				t.Fatal(err)
			}
		}
	}
	capped := []struct {
		name     string
		got, max int64
	}{
		{"dirty_ubf_nodes", m.Total(obs.StageIncremental, obs.CtrDirtyUBF), 12498},
		{"dirty_iff_nodes", m.Total(obs.StageIncremental, obs.CtrDirtyIFF), 48823},
		{"refit balls_tested", m.Total(obs.StageIncremental, obs.CtrBallsTested), 2414374},
	}
	for _, c := range capped {
		if c.got > c.max {
			t.Errorf("%s = %d over 100 deltas, want <= %d", c.name, c.got, c.max)
		}
	}
	if !reflect.DeepEqual(inc.Snapshot(), seeded) {
		t.Error("moving every node home did not restore the seeded detection state")
	}
}
