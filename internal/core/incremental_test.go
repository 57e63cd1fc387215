package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/obs"
)

// tinyNet assembles a small hand-placed network for validation tests.
func tinyNet(t *testing.T) *netgen.Network {
	t.Helper()
	nodes := []netgen.Node{
		{Pos: geom.V(0, 0, 0)}, {Pos: geom.V(1, 0, 0)}, {Pos: geom.V(0, 1, 0)},
		{Pos: geom.V(1, 1, 0)}, {Pos: geom.V(0.5, 0.5, 1)}, {Pos: geom.V(0.5, 0.5, -1)},
		{Pos: geom.V(2, 0, 0)}, {Pos: geom.V(2, 1, 0)}, {Pos: geom.V(3, 0.5, 0.5)},
		{Pos: geom.V(1.5, 0.5, 1.2)},
	}
	net, err := netgen.Assemble(nodes, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestDetectRejectsNegativeConfig pins the config-seam fix: negative
// Workers and Shards used to be silently clamped deep inside the worker
// pool and the partitioner; DetectContext now rejects them up front with
// typed errors.
func TestDetectRejectsNegativeConfig(t *testing.T) {
	net := tinyNet(t)
	if _, err := Detect(net, nil, Config{Workers: -1}); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("Workers=-1: got %v, want ErrNegativeWorkers", err)
	}
	if _, err := Detect(net, nil, Config{Shards: -3}); !errors.Is(err, ErrNegativeShards) {
		t.Fatalf("Shards=-3: got %v, want ErrNegativeShards", err)
	}
	if _, err := NewIncremental(net, Config{Workers: -2}); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("incremental Workers=-2: got %v, want ErrNegativeWorkers", err)
	}
}

// TestDetectShardsExceedNodeCount adds the degenerate end of the shard
// matrix: more shards than nodes (some shards empty, most holding a
// single node) must still be bit-identical to the unsharded pipeline.
func TestDetectShardsExceedNodeCount(t *testing.T) {
	for _, net := range []*netgen.Network{tinyNet(t), incWorlds(t)[0].net} {
		base, err := Detect(net, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		over, err := Detect(net, nil, Config{Shards: net.Len() + 7})
		if err != nil {
			t.Fatalf("shards=%d over %d nodes: %v", net.Len()+7, net.Len(), err)
		}
		diffResults(t, "shards>nodes", base, over, msgEqual)
	}
}

func TestIncrementalRejectsNonTrueCoords(t *testing.T) {
	net := tinyNet(t)
	if _, err := NewIncremental(net, Config{Coords: CoordsMDS}); !errors.Is(err, ErrIncrementalCoords) {
		t.Fatalf("CoordsMDS: got %v, want ErrIncrementalCoords", err)
	}
	if _, err := NewIncremental(nil, Config{}); !errors.Is(err, ErrNoNetwork) {
		t.Fatalf("nil network: got %v, want ErrNoNetwork", err)
	}
}

// TestIncrementalValidationErrors exercises every per-delta validation
// error and proves each one left the engine untouched: after the failed
// Apply, the state still diffs clean against a full recompute, and a
// subsequent valid delta behaves normally.
func TestIncrementalValidationErrors(t *testing.T) {
	cfg := Config{}
	inc, err := NewIncremental(tinyNet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Apply(Delta{Op: DeltaLeave, Node: 3}); err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name string
		d    Delta
		want error
	}{
		{"unknown op", Delta{Op: 0, Node: 1}, ErrUnknownDeltaOp},
		{"op out of range", Delta{Op: 99, Node: 1}, ErrUnknownDeltaOp},
		{"move negative id", Delta{Op: DeltaMove, Node: -1, Pos: geom.V(0, 0, 0)}, ErrNoSuchNode},
		{"leave beyond id space", Delta{Op: DeltaLeave, Node: inc.Len()}, ErrNoSuchNode},
		{"crash departed node", Delta{Op: DeltaCrash, Node: 3}, ErrNoSuchNode},
		{"join NaN", Delta{Op: DeltaJoin, Pos: geom.V(math.NaN(), 0, 0)}, ErrBadPosition},
		{"move Inf", Delta{Op: DeltaMove, Node: 1, Pos: geom.V(0, math.Inf(1), 0)}, ErrBadPosition},
	}
	for _, tc := range bad {
		if _, err := inc.Apply(tc.d); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		diffIncremental(t, tc.name+" (post-error)", inc, cfg)
	}

	id, err := inc.Apply(Delta{Op: DeltaJoin, Pos: geom.V(0.5, 1.5, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if id != inc.Len()-1 {
		t.Fatalf("join after errors assigned %d, want %d", id, inc.Len()-1)
	}
	diffIncremental(t, "join after errors", inc, cfg)
}

// TestIncrementalStableIDsNeverReused pins the ID discipline the
// bit-identity argument leans on: departures never free IDs, joins always
// extend the ID space.
func TestIncrementalStableIDsNeverReused(t *testing.T) {
	inc, err := NewIncremental(tinyNet(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	n0 := inc.Len()
	if _, err := inc.Apply(Delta{Op: DeltaLeave, Node: n0 - 1}); err != nil {
		t.Fatal(err)
	}
	id, err := inc.Apply(Delta{Op: DeltaJoin, Pos: geom.V(1, 0.5, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if id != n0 {
		t.Fatalf("join reused ID %d, want fresh ID %d", id, n0)
	}
	if inc.Len() != n0+1 || inc.ActiveCount() != n0 {
		t.Fatalf("Len=%d ActiveCount=%d, want %d and %d", inc.Len(), inc.ActiveCount(), n0+1, n0)
	}
}

// TestIncrementalCrashEqualsLeave pins the documented equivalence: the
// direct-evaluation engine sees a crash as the same topology change as an
// announced departure.
func TestIncrementalCrashEqualsLeave(t *testing.T) {
	net := tinyNet(t)
	a, err := NewIncremental(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewIncremental(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(Delta{Op: DeltaLeave, Node: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Apply(Delta{Op: DeltaCrash, Node: 4}); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	for i := range sa.Boundary {
		if sa.Boundary[i] != sb.Boundary[i] || sa.GroupLabel[i] != sb.GroupLabel[i] {
			t.Fatalf("node %d: leave and crash diverged", i)
		}
	}
}

func TestDeltaOpStrings(t *testing.T) {
	for _, op := range []DeltaOp{DeltaJoin, DeltaLeave, DeltaMove, DeltaCrash} {
		back, ok := DeltaOpFromString(op.String())
		if !ok || back != op {
			t.Fatalf("round trip of %v failed: %v %v", op, back, ok)
		}
	}
	if _, ok := DeltaOpFromString("explode"); ok {
		t.Fatal("unknown op name accepted")
	}
	if s := DeltaOp(42).String(); s != "delta?" {
		t.Fatalf("unknown op prints %q", s)
	}
}

// cancelObserver cancels a context when the incremental engine reports its
// k-th UBF dirty set — inside a delta's repair, after its topology change.
type cancelObserver struct {
	obs.Mem
	cancel func()
	at     int
	seen   int
}

func (c *cancelObserver) Count(s obs.Stage, ctr obs.Counter, delta int64) {
	c.Mem.Count(s, ctr, delta)
	if s == obs.StageIncremental && ctr == obs.CtrDirtyUBF {
		if c.seen++; c.seen == c.at {
			c.cancel()
		}
	}
}

// TestIncrementalCancelMidBatch: a context cancelled while a delta is being
// repaired must not leave the engine half-updated. The delta in flight
// lands in full, the next one is refused before it touches anything, and
// the engine still equals a full recompute and keeps accepting deltas.
func TestIncrementalCancelMidBatch(t *testing.T) {
	w := incWorlds(t)[0]
	cfg := Config{}
	inc, err := NewIncremental(w.net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Teleporting boundary nodes far outside the network isolates them, so
	// their verdicts must flip: a skipped repair cannot go unnoticed.
	var movers []int
	for u, b := range inc.Snapshot().Boundary {
		if b && len(movers) < 3 {
			movers = append(movers, u)
		}
	}
	_, hi := bboxOf(inc)
	far := 10 * inc.Radius()
	batch := []Delta{
		{Op: DeltaMove, Node: movers[0], Pos: hi.Add(geom.V(far, 0, 0))},
		{Op: DeltaMove, Node: movers[1], Pos: hi.Add(geom.V(0, far, 0))},
		{Op: DeltaMove, Node: movers[2], Pos: hi.Add(geom.V(0, 0, far))},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := &cancelObserver{cancel: cancel, at: 2}
	applied := 0
	for _, d := range batch {
		if _, err := inc.ApplyContext(ctx, o, d); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("delta %d: %v", applied, err)
			}
			break
		}
		applied++
	}
	diffIncremental(t, "after cancelled batch", inc, cfg)
	if applied != 2 {
		t.Fatalf("applied %d deltas, want 2 (the one cancelled mid-repair completes, the next is refused)", applied)
	}
	if un := o.Unbalanced(); len(un) != 0 {
		t.Fatalf("unbalanced spans: %v", un)
	}
	if _, err := inc.Apply(batch[2]); err != nil {
		t.Fatal(err)
	}
	diffIncremental(t, "delta after the cancelled batch", inc, cfg)
}
