package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/ranging"
	"repro/internal/sim"
)

func TestMedoid(t *testing.T) {
	// Majority cluster at the origin, one flipped outlier: the medoid
	// must come from the cluster.
	ests := []geom.Vec3{
		geom.V(0.01, 0, 0),
		geom.V(0, 0.01, 0),
		geom.V(0, 0, 0.02),
		geom.V(5, 5, 5), // flipped outlier
	}
	m := medoid(ests)
	if m.Norm() > 0.1 {
		t.Errorf("medoid picked the outlier: %v", m)
	}
	// Single estimate: returned verbatim.
	if got := medoid([]geom.Vec3{geom.V(1, 2, 3)}); got != geom.V(1, 2, 3) {
		t.Errorf("single-estimate medoid = %v", got)
	}
	// Ties break toward the earliest estimate.
	tie := []geom.Vec3{geom.V(1, 0, 0), geom.V(1, 0, 0)}
	if got := medoid(tie); got != tie[0] {
		t.Errorf("tie medoid = %v", got)
	}
}

func TestClusterSpread(t *testing.T) {
	center := geom.Zero
	// Tight majority, one outlier: spread reflects the majority only.
	ests := []geom.Vec3{
		center,
		geom.V(0.01, 0, 0),
		geom.V(0, 0.01, 0),
		geom.V(9, 9, 9),
	}
	var buf []float64
	s := clusterSpread(ests, center, 0.5, &buf)
	if s > 0.02 {
		t.Errorf("spread %v dominated by outlier", s)
	}
	// No cross-check: fall back.
	if got := clusterSpread([]geom.Vec3{center}, center, 0.42, &buf); got != 0.42 {
		t.Errorf("fallback spread = %v", got)
	}
	// Two estimates: spread equals their distance.
	two := []geom.Vec3{center, geom.V(0.3, 0, 0)}
	if got := clusterSpread(two, center, 1, &buf); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("two-estimate spread = %v", got)
	}
}

func TestFitEmptyBallPerPointTolerance(t *testing.T) {
	// Minimal frame: the center and two candidate neighbors define
	// exactly two mirrored unit balls; occupants sit at both ball
	// centers. With strict tolerances both balls are blocked; marking
	// the occupants as completely uncertain unblocks them.
	j := geom.V(0.3, 0, 0)
	k := geom.V(0, 0.3, 0)
	balls := geom.SpheresThrough3(geom.Zero, j, k, 1.0)
	if len(balls) != 2 {
		t.Fatalf("expected 2 candidate balls, got %d", len(balls))
	}
	coords := []geom.Vec3{geom.Zero, j, k, balls[0].Center, balls[1].Center}
	candidates := []int{1, 2}

	strict := FitEmptyBallTolerances(coords, 0, candidates, 1.0, uniformTol(1e-9))
	if strict.Boundary {
		t.Fatal("occupants at the ball centers failed to block")
	}
	tol := func(idx int) float64 {
		if idx >= 3 {
			return 2.0 // completely uncertain positions
		}
		return 1e-9
	}
	loose := FitEmptyBallTolerances(coords, 0, candidates, 1.0, tol)
	if !loose.Boundary {
		t.Fatal("uncertain occupants still blocked the ball")
	}
}

func TestDetectScopeOneHop(t *testing.T) {
	net, _ := fixtures(t)
	meas := net.Measure(ranging.Exact{}, 0)
	oneHop, err := Detect(net, meas, Config{Scope: ScopeOneHop})
	if err != nil {
		t.Fatal(err)
	}
	twoHop, err := Detect(net, meas, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The one-hop scope sees strictly less blocking evidence, so its raw
	// UBF set should be at least as large in aggregate.
	count := func(mask []bool) int {
		c := 0
		for _, b := range mask {
			if b {
				c++
			}
		}
		return c
	}
	if count(oneHop.UBF) < count(twoHop.UBF) {
		t.Errorf("one-hop UBF %d < two-hop %d; expected over-detection",
			count(oneHop.UBF), count(twoHop.UBF))
	}
}

func TestDetectMessageAccounting(t *testing.T) {
	net, _ := fixtures(t)
	res, err := Detect(net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IFFMessages == 0 {
		t.Error("IFF exchanged no messages")
	}
	if res.GroupingMessages == 0 {
		t.Error("grouping exchanged no messages")
	}
	// With IFF disabled no filtering flood runs.
	noIFF, err := Detect(net, nil, Config{IFFThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if noIFF.IFFMessages != 0 {
		t.Errorf("disabled IFF still counted %d messages", noIFF.IFFMessages)
	}
}

func TestDetectAdaptiveToleranceDisabled(t *testing.T) {
	net, _ := fixtures(t)
	meas := net.Measure(ranging.UniformAdditive{Fraction: 0.3}, 5)
	adaptive, err := Detect(net, meas, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Detect(net, meas, Config{AdaptiveTolFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	count := func(mask []bool) int {
		c := 0
		for _, b := range mask {
			if b {
				c++
			}
		}
		return c
	}
	// Under noise, disabling adaptation loses detections: phantom
	// positions block genuinely empty balls.
	if count(fixed.Boundary) >= count(adaptive.Boundary) {
		t.Errorf("fixed tolerance found %d >= adaptive %d",
			count(fixed.Boundary), count(adaptive.Boundary))
	}
}

// Detection must be identical whether the flooding phases run on the
// synchronous round kernel or the asynchronous event kernel: both IFF's
// TTL flood and grouping's min-label propagation are delay-independent.
func TestDetectAsyncEqualsSync(t *testing.T) {
	net, _ := fixtures(t)
	sync, err := Detect(net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 99} {
		async, err := Detect(net, nil, Config{Async: true, AsyncSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := range sync.Boundary {
			if sync.Boundary[i] != async.Boundary[i] {
				t.Fatalf("seed %d: boundary differs at node %d", seed, i)
			}
			if sync.FragmentSize[i] != async.FragmentSize[i] {
				t.Fatalf("seed %d: fragment size differs at node %d: %d vs %d",
					seed, i, sync.FragmentSize[i], async.FragmentSize[i])
			}
			if sync.GroupLabel[i] != async.GroupLabel[i] {
				t.Fatalf("seed %d: group label differs at node %d", seed, i)
			}
		}
	}
}

// TestDetectFaultsBelowBudgetEqualsFaultFree: with per-link loss capped
// below the retransmission budget, the hardened flooding phases mask the
// faults completely — detection output is identical to the fault-free
// run, and the fault counters prove losses actually happened.
func TestDetectFaultsBelowBudgetEqualsFaultFree(t *testing.T) {
	net, _ := fixtures(t)
	clean, err := Detect(net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	faults := sim.FaultConfig{
		Seed:            7,
		DropRate:        0.2,
		MaxDropsPerLink: 2,
		DuplicateRate:   0.1,
		DelayRate:       0.2,
		MaxExtraDelay:   2,
	}
	for _, async := range []bool{false, true} {
		faulty, err := Detect(net, nil, Config{
			Async: async, AsyncSeed: 3,
			Faults: faults,
		})
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		for i := range clean.Boundary {
			if clean.Boundary[i] != faulty.Boundary[i] {
				t.Fatalf("async=%v: boundary differs at node %d", async, i)
			}
			if clean.FragmentSize[i] != faulty.FragmentSize[i] {
				t.Fatalf("async=%v: fragment size differs at node %d", async, i)
			}
			if clean.GroupLabel[i] != faulty.GroupLabel[i] {
				t.Fatalf("async=%v: group label differs at node %d", async, i)
			}
		}
		if faulty.FaultStats.Dropped == 0 {
			t.Errorf("async=%v: fault plan dropped nothing — test is vacuous", async)
		}
		if faulty.FaultStats.Retransmits == 0 {
			t.Errorf("async=%v: no retransmissions despite losses", async)
		}
	}
	if clean.FaultStats != (sim.FaultStats{}) {
		t.Errorf("fault-free run reports fault activity: %+v", clean.FaultStats)
	}
}
