package core

// Differential battery for the sharded schedule: sharded runs must be
// bit-identical to the unsharded pipeline — same verdict bits, same work
// counters, same float values, same message and fault counters — on every
// world, shard count, worker count, and flood plan. The suite mirrors internal/mesh's refimpl
// differential style: one trusted baseline per world, a matrix of
// configurations diffed against it.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/ranging"
	"repro/internal/shapes"
	"repro/internal/sim"
)

// shardWorld is one deployment plus its unsharded baseline result.
type shardWorld struct {
	name string
	net  *netgen.Network
	base *Result
}

var (
	shardWorldsOnce sync.Once
	shardWorldsVal  []shardWorld
	shardWorldsErr  error
)

// shardWorlds builds the seeded sphere/cube/torus deployments (the worlds
// of internal/mesh's differential suite) with their unsharded CoordsTrue
// baselines, once per test binary.
func shardWorlds(t *testing.T) []shardWorld {
	t.Helper()
	shardWorldsOnce.Do(func() {
		box, err := shapes.NewBoxWithHoles(geom.V(0, 0, 0), geom.V(7, 7, 7), nil)
		if err != nil {
			shardWorldsErr = err
			return
		}
		tor, err := shapes.NewTorus(5.5, 2.2)
		if err != nil {
			shardWorldsErr = err
			return
		}
		specs := []struct {
			name     string
			shape    shapes.Shape
			surf, in int
			seed     int64
		}{
			{"sphere", shapes.NewBall(geom.Zero, 4), 400, 900, 60},
			{"cube", box, 450, 950, 61},
			{"torus", tor, 700, 1100, 3},
		}
		for _, sp := range specs {
			net, err := netgen.Generate(netgen.Config{
				Shape:           sp.shape,
				SurfaceNodes:    sp.surf,
				InteriorNodes:   sp.in,
				TargetAvgDegree: 18,
				Seed:            sp.seed,
			})
			if err != nil {
				shardWorldsErr = fmt.Errorf("%s: %w", sp.name, err)
				return
			}
			base, err := Detect(net, nil, Config{})
			if err != nil {
				shardWorldsErr = fmt.Errorf("%s baseline: %w", sp.name, err)
				return
			}
			shardWorldsVal = append(shardWorldsVal, shardWorld{name: sp.name, net: net, base: base})
		}
	})
	if shardWorldsErr != nil {
		t.Fatal(shardWorldsErr)
	}
	return shardWorldsVal
}

// msgMode selects how diffResults treats the message counters.
type msgMode int

const (
	// msgEqual requires identical traffic and fault stats (runs of the
	// same flood plan).
	msgEqual msgMode = iota
	// msgSkip ignores traffic (a faulty run against a clean one:
	// retransmissions change costs, never verdicts).
	msgSkip
)

// diffResults fails the test unless got matches want bit for bit on every
// outcome field; message counters are handled per mode.
func diffResults(t *testing.T, label string, want, got *Result, mode msgMode) {
	t.Helper()
	if len(got.UBF) != len(want.UBF) {
		t.Fatalf("%s: node count %d != %d", label, len(got.UBF), len(want.UBF))
	}
	for i := range want.UBF {
		if got.UBF[i] != want.UBF[i] {
			t.Fatalf("%s: UBF[%d] = %v, want %v", label, i, got.UBF[i], want.UBF[i])
		}
		if got.Boundary[i] != want.Boundary[i] {
			t.Fatalf("%s: Boundary[%d] = %v, want %v", label, i, got.Boundary[i], want.Boundary[i])
		}
		if got.FragmentSize[i] != want.FragmentSize[i] {
			t.Fatalf("%s: FragmentSize[%d] = %d, want %d", label, i, got.FragmentSize[i], want.FragmentSize[i])
		}
		if got.GroupLabel[i] != want.GroupLabel[i] {
			t.Fatalf("%s: GroupLabel[%d] = %d, want %d", label, i, got.GroupLabel[i], want.GroupLabel[i])
		}
		if got.BallsTested[i] != want.BallsTested[i] {
			t.Fatalf("%s: BallsTested[%d] = %d, want %d", label, i, got.BallsTested[i], want.BallsTested[i])
		}
		if got.NodesChecked[i] != want.NodesChecked[i] {
			t.Fatalf("%s: NodesChecked[%d] = %d, want %d", label, i, got.NodesChecked[i], want.NodesChecked[i])
		}
	}
	if (got.CoordError == nil) != (want.CoordError == nil) {
		t.Fatalf("%s: CoordError presence %v != %v", label, got.CoordError != nil, want.CoordError != nil)
	}
	for i := range want.CoordError {
		// Bit-identity, not approximation: the sharded frames see the same
		// inputs in the same order, so the floats must match exactly.
		if math.Float64bits(got.CoordError[i]) != math.Float64bits(want.CoordError[i]) {
			t.Fatalf("%s: CoordError[%d] = %v, want %v", label, i, got.CoordError[i], want.CoordError[i])
		}
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(want.Groups))
	}
	for gi := range want.Groups {
		if len(got.Groups[gi]) != len(want.Groups[gi]) {
			t.Fatalf("%s: group %d size %d, want %d", label, gi, len(got.Groups[gi]), len(want.Groups[gi]))
		}
		for k := range want.Groups[gi] {
			if got.Groups[gi][k] != want.Groups[gi][k] {
				t.Fatalf("%s: group %d member %d = %d, want %d", label, gi, k, got.Groups[gi][k], want.Groups[gi][k])
			}
		}
	}
	if mode == msgEqual {
		if got.IFFMessages != want.IFFMessages || got.GroupingMessages != want.GroupingMessages {
			t.Fatalf("%s: messages (%d,%d), want (%d,%d)", label,
				got.IFFMessages, got.GroupingMessages, want.IFFMessages, want.GroupingMessages)
		}
		if got.FaultStats != want.FaultStats {
			t.Fatalf("%s: fault stats %+v, want %+v", label, got.FaultStats, want.FaultStats)
		}
	}
}

// TestShardedDifferentialMatrix diffs the sharded schedule against the
// unsharded pipeline over worlds × shard counts × worker counts × flood
// plans. Every cell must produce the clean baseline's outcome bits, and
// the message and fault counters of an unsharded run of the same plan:
// sharding schedules only the per-node stages, so the floods are the same
// runs.
func TestShardedDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is long")
	}
	// The faulty plan stays in the outcome-preserving regime: bounded
	// per-link loss within the retransmit budget, plus duplicates and
	// delays (harmless by idempotence). Crash faults are excluded — a
	// crashed node genuinely changes the flood counts, so the outcome
	// would no longer be the clean baseline's.
	faulty := sim.FaultConfig{Seed: 7, DropRate: 0.05, MaxDropsPerLink: 2, DuplicateRate: 0.02, DelayRate: 0.05}
	plans := []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{}},
		{"async", Config{Async: true, AsyncSeed: 5}},
		{"faulty", Config{Faults: faulty}},
	}
	for _, w := range shardWorlds(t) {
		for _, p := range plans {
			// The plan's unsharded run: the clean baseline's outcome,
			// with the plan's own traffic (asynchronous delays and
			// retransmissions change costs, never verdicts).
			ref, err := Detect(w.net, nil, p.cfg)
			if err != nil {
				t.Fatalf("%s/%s unsharded: %v", w.name, p.name, err)
			}
			diffResults(t, w.name+"/"+p.name+"/unsharded", w.base, ref, msgSkip)
			for _, shards := range []int{1, 2, 4, 7} {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/shards=%d/workers=%d/%s", w.name, shards, workers, p.name)
					cfg := p.cfg
					cfg.Shards = shards
					cfg.Workers = workers
					got, err := Detect(w.net, nil, cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					diffResults(t, label, ref, got, msgEqual)
				}
			}
		}
	}
}

// TestShardedObservedFloodsMatchUnsharded pins the observed side of the
// shared flood tail: a sharded run's IFF and grouping counters, round
// counts and event stream in obs.Mem equal the unsharded run's, on both
// kernels.
func TestShardedObservedFloodsMatchUnsharded(t *testing.T) {
	w := shardWorlds(t)[0]
	floodEvents := func(m *obs.Mem) []obs.Event {
		var out []obs.Event
		for _, ev := range m.Events() {
			if ev.Stage == obs.StageIFF || ev.Stage == obs.StageGrouping {
				ev.WallNS = 0
				out = append(out, ev)
			}
		}
		return out
	}
	for name, cfg := range map[string]Config{
		"sync":  {Workers: 2},
		"async": {Workers: 2, Async: true, AsyncSeed: 3},
	} {
		t.Run(name, func(t *testing.T) {
			var plain, sharded obs.Mem
			if _, err := DetectContext(context.Background(), &plain, w.net, nil, cfg); err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 4
			if _, err := DetectContext(context.Background(), &sharded, w.net, nil, cfg); err != nil {
				t.Fatal(err)
			}
			for _, s := range []obs.Stage{obs.StageIFF, obs.StageGrouping} {
				if plain.Rounds(s) == 0 {
					t.Fatalf("stage %s: unsharded run recorded no rounds", s)
				}
				if got, want := sharded.Rounds(s), plain.Rounds(s); got != want {
					t.Errorf("stage %s: %d rounds, want %d", s, got, want)
				}
			}
			want, got := plain.Totals(), sharded.Totals()
			for key, v := range want {
				if strings.HasPrefix(key, "iff/") || strings.HasPrefix(key, "grouping/") {
					if got[key] != v {
						t.Errorf("%s = %d, want %d", key, got[key], v)
					}
				}
			}
			if !reflect.DeepEqual(floodEvents(&sharded), floodEvents(&plain)) {
				t.Error("sharded IFF/grouping event stream differs from the unsharded one")
			}
		})
	}
}

// TestShardedDifferentialMDS runs the stitched-coordinates path (CoordsMDS
// + ScopeTwoHop) sharded and unsharded on a smaller sphere: frames, fused
// two-hop estimates and adaptive tolerances must all reproduce exactly,
// including the per-node CoordError floats.
func TestShardedDifferentialMDS(t *testing.T) {
	if testing.Short() {
		t.Skip("MDS differential is long")
	}
	net, err := netgen.Generate(netgen.Config{
		Shape:           shapes.NewBall(geom.Zero, 3),
		SurfaceNodes:    150,
		InteriorNodes:   350,
		TargetAvgDegree: 16,
		Seed:            29,
	})
	if err != nil {
		t.Fatal(err)
	}
	meas := net.Measure(ranging.ForFraction(0.2), 41)
	base, err := Detect(net, meas, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 5} {
		got, err := Detect(net, meas, Config{Shards: shards, Workers: 3})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		diffResults(t, fmt.Sprintf("mds/shards=%d", shards), base, got, msgEqual)
	}
}

// TestShardedScopeAndIFFVariants covers the remaining configuration axes
// on one world: one-hop scope (a one-hop halo), IFF disabled, and TTLs
// from 1 to far beyond the halo, which no longer bounds the floods.
func TestShardedScopeAndIFFVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("variant differential is long")
	}
	w := shardWorlds(t)[0]
	variants := []struct {
		name string
		cfg  Config
	}{
		{"one-hop", Config{Scope: ScopeOneHop}},
		{"iff-off", Config{IFFThreshold: -1}},
		{"ttl-1", Config{IFFTTL: 1}},
		{"theta-8-ttl-5", Config{IFFThreshold: 8, IFFTTL: 5}},
		{"theta-5-ttl-9", Config{IFFThreshold: 5, IFFTTL: 9}},
		{"theta-5-ttl-121", Config{IFFThreshold: 5, IFFTTL: 121}},
	}
	for _, v := range variants {
		base, err := Detect(w.net, nil, v.cfg)
		if err != nil {
			t.Fatalf("%s baseline: %v", v.name, err)
		}
		cfg := v.cfg
		cfg.Shards = 3
		cfg.Workers = 2
		got, err := Detect(w.net, nil, cfg)
		if err != nil {
			t.Fatalf("%s sharded: %v", v.name, err)
		}
		diffResults(t, v.name, base, got, msgEqual)
	}
}

// TestShardedDeepTTLFallback drives the IFF TTL far past the halo depth.
// The halo does not widen with the TTL: the sharded run keeps its per-node
// stages sharded and floods on the shared unsharded tail, so it must still
// return the unsharded bits, message counters included — the flood really
// runs the message-passing protocol to the full TTL.
func TestShardedDeepTTLFallback(t *testing.T) {
	net, err := netgen.Generate(netgen.Config{
		Shape:           shapes.NewBall(geom.Zero, 3),
		SurfaceNodes:    200,
		InteriorNodes:   400,
		TargetAvgDegree: 14,
		Seed:            13,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{IFFThreshold: 5, IFFTTL: 121}
	base, err := Detect(net, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 4
	got, err := Detect(net, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "deep-ttl", base, got, msgEqual)
	if got.IFFMessages == 0 {
		t.Error("deep-TTL sharded run reports zero IFF messages; expected the message-passing flood")
	}
}
