package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/ranging"
	"repro/internal/shapes"
	"repro/internal/sim"
)

// Networks are expensive to generate and detection-test fixtures are pure,
// so fixtures are built once and shared.
var (
	fixtureOnce sync.Once
	ballNet     *netgen.Network
	holeNet     *netgen.Network
	fixtureErr  error
)

func fixtures(t *testing.T) (*netgen.Network, *netgen.Network) {
	t.Helper()
	fixtureOnce.Do(func() {
		ballNet, fixtureErr = netgen.Generate(netgen.Config{
			Shape:           shapes.NewBall(geom.Zero, 4),
			SurfaceNodes:    500,
			InteriorNodes:   1500,
			TargetAvgDegree: 17,
			Seed:            60,
		})
		if fixtureErr != nil {
			return
		}
		holeShape, err := shapes.NewBoxWithHoles(geom.V(0, 0, 0), geom.V(8, 8, 8),
			[]geom.Sphere{{Center: geom.V(4, 4, 4), Radius: 2}})
		if err != nil {
			fixtureErr = err
			return
		}
		holeNet, fixtureErr = netgen.Generate(netgen.Config{
			Shape:           holeShape,
			SurfaceNodes:    900,
			InteriorNodes:   2400,
			TargetAvgDegree: 17,
			Seed:            61,
		})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return ballNet, holeNet
}

// classify splits a detection mask against ground truth.
func classify(net *netgen.Network, found []bool) (correct, mistaken, missing int) {
	for i, n := range net.Nodes {
		switch {
		case found[i] && n.OnSurface:
			correct++
		case found[i] && !n.OnSurface:
			mistaken++
		case !found[i] && n.OnSurface:
			missing++
		}
	}
	return correct, mistaken, missing
}

func TestDetectValidation(t *testing.T) {
	if _, err := Detect(nil, nil, Config{}); err != ErrNoNetwork {
		t.Errorf("nil network: err = %v", err)
	}
	net, _ := fixtures(t)
	if _, err := Detect(net, nil, Config{Coords: CoordsMDS}); err != ErrNeedMeasurement {
		t.Errorf("MDS without measurement: err = %v", err)
	}
	if _, err := Detect(net, nil, Config{Coords: CoordSource(99)}); err == nil {
		t.Error("unknown coord source should fail")
	}
}

func TestDetectTrueCoordsOnSphere(t *testing.T) {
	net, _ := fixtures(t)
	res, err := Detect(net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	correct, mistaken, missing := classify(net, res.Boundary)
	surface := 0
	for _, n := range net.Nodes {
		if n.OnSurface {
			surface++
		}
	}
	// At zero error the paper reports near-perfect detection: almost all
	// true boundary nodes found, mistaken nodes confined to the
	// immediate vicinity of the surface.
	if recall := float64(correct) / float64(surface); recall < 0.95 {
		t.Errorf("recall = %.3f (correct=%d missing=%d), want >= 0.95", recall, correct, missing)
	}
	if float64(mistaken) > 0.6*float64(surface) {
		t.Errorf("mistaken = %d out of %d true, too many", mistaken, surface)
	}
	// Every mistaken node must hug the true boundary (the paper: within
	// ~3 hops; geometrically within ~1.5 radio ranges here).
	for i, n := range net.Nodes {
		if res.Boundary[i] && !n.OnSurface {
			depth := 4 - n.Pos.Dist(geom.Zero)
			if depth > 1.6*net.Radius {
				t.Errorf("mistaken node %d at depth %.2f radii", i, depth/net.Radius)
			}
		}
	}
}

func TestDetectGroupsSeparateBoundaries(t *testing.T) {
	_, net := fixtures(t)
	res, err := Detect(net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("got %d boundary groups, want 2 (outer box + hole)", len(res.Groups))
	}
	// The hole group must consist of nodes near the cavity sphere; the
	// outer group of nodes near the box surface.
	center := geom.V(4, 4, 4)
	var outer, hole []int
	if len(res.Groups[0]) > len(res.Groups[1]) {
		outer, hole = res.Groups[0], res.Groups[1]
	} else {
		outer, hole = res.Groups[1], res.Groups[0]
	}
	for _, i := range hole {
		if d := net.Nodes[i].Pos.Dist(center); d > 2+1.6*net.Radius {
			t.Errorf("hole-group node %d at distance %.2f from cavity", i, d)
		}
	}
	for _, i := range outer {
		if d := net.Nodes[i].Pos.Dist(center); d < 2 {
			t.Errorf("outer-group node %d inside cavity radius", i)
		}
	}
	// Labels must agree with groups.
	for gi, group := range res.Groups {
		for _, i := range group {
			if res.GroupLabel[i] != group[0] {
				t.Errorf("group %d node %d has label %d", gi, i, res.GroupLabel[i])
			}
		}
	}
	for i, l := range res.GroupLabel {
		if res.Boundary[i] != (l != sim.NoGroup) {
			t.Errorf("label/boundary mismatch at %d", i)
		}
	}
}

func TestDetectIFFDisabled(t *testing.T) {
	net, _ := fixtures(t)
	withIFF, err := Detect(net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Detect(net, nil, Config{IFFThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Without IFF the final mask equals raw UBF; with IFF it is a subset.
	for i := range without.Boundary {
		if without.Boundary[i] != without.UBF[i] {
			t.Fatal("IFF-disabled result differs from UBF")
		}
		if withIFF.Boundary[i] && !withIFF.UBF[i] {
			t.Fatal("IFF added a node")
		}
	}
	// UBF phase must be identical across the two runs.
	for i := range withIFF.UBF {
		if withIFF.UBF[i] != without.UBF[i] {
			t.Fatal("UBF phase differs between runs")
		}
	}
}

func TestDetectIFFFiltersSmallFragments(t *testing.T) {
	net, _ := fixtures(t)
	res, err := Detect(net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Boundary {
		if res.UBF[i] && !res.Boundary[i] && res.FragmentSize[i] >= 20 {
			t.Errorf("node %d filtered despite fragment size %d", i, res.FragmentSize[i])
		}
		if res.Boundary[i] && res.FragmentSize[i] < 20 {
			t.Errorf("node %d kept with fragment size %d", i, res.FragmentSize[i])
		}
	}
}

func TestDetectDeterministicAcrossWorkerCounts(t *testing.T) {
	net, _ := fixtures(t)
	// Three pipeline flavors: the plain synchronous run (grid-pruned UBF
	// hot path included), the asynchronous kernel, and an async run under
	// a recoverable fault plan (per-link loss within the retransmit
	// budget, so the hardened protocols still deliver exact results).
	// Each must produce a byte-identical Result regardless of worker
	// count — scheduling must never leak into verdicts, counters, or
	// fragment/group structure.
	configs := map[string]Config{
		"sync":  {},
		"async": {Async: true, AsyncSeed: 7},
		"faulty-async": {
			Async:     true,
			AsyncSeed: 7,
			Faults: sim.FaultConfig{
				Seed:            11,
				DropRate:        0.2,
				MaxDropsPerLink: 2, // ≤ the retransmit budget of 3: recoverable
				DuplicateRate:   0.1,
			},
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			cfg1 := cfg
			cfg1.Workers = 1
			a, err := Detect(net, nil, cfg1)
			if err != nil {
				t.Fatal(err)
			}
			cfg8 := cfg
			cfg8.Workers = 8
			b, err := Detect(net, nil, cfg8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				for i := range a.Boundary {
					if a.Boundary[i] != b.Boundary[i] || a.UBF[i] != b.UBF[i] {
						t.Fatalf("worker count changed verdict at node %d", i)
					}
					if a.BallsTested[i] != b.BallsTested[i] || a.NodesChecked[i] != b.NodesChecked[i] {
						t.Fatalf("worker count changed work accounting at node %d", i)
					}
				}
				t.Fatal("worker count changed the Result outside the per-node fields")
			}
		})
	}
}

func TestDetectMDSZeroErrorMatchesTrueCoords(t *testing.T) {
	net, _ := fixtures(t)
	oracle, err := Detect(net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	meas := net.Measure(ranging.Exact{}, 0)
	viaMDS, err := Detect(net, meas, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if viaMDS.CoordError == nil {
		t.Fatal("MDS run did not record coordinate errors")
	}
	agree := 0
	for i := range oracle.Boundary {
		if oracle.Boundary[i] == viaMDS.Boundary[i] {
			agree++
		}
	}
	// Exact distances should reproduce the oracle almost everywhere
	// (MDS embedding residue can flip borderline nodes near the surface).
	if frac := float64(agree) / float64(net.Len()); frac < 0.92 {
		t.Errorf("MDS/oracle agreement = %.3f, want >= 0.92", frac)
	}
	// And detection quality through MDS must stay near-perfect, the
	// paper's Fig. 11(a) claim at 0 % error.
	correct, _, missing := classify(net, viaMDS.Boundary)
	if recall := float64(correct) / float64(correct+missing); recall < 0.94 {
		t.Errorf("MDS recall at 0%% error = %.3f, want >= 0.94", recall)
	}
}

func TestDetectMDSDegradesGracefully(t *testing.T) {
	net, _ := fixtures(t)
	exact := net.Measure(ranging.Exact{}, 0)
	noisy := net.Measure(ranging.UniformAdditive{Fraction: 0.8}, 1)
	resExact, err := Detect(net, exact, Config{})
	if err != nil {
		t.Fatal(err)
	}
	resNoisy, err := Detect(net, noisy, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, missExact := classify(net, resExact.Boundary)
	_, mistNoisy, missNoisy := classify(net, resNoisy.Boundary)
	// Heavy noise must hurt: more missing than the near-perfect exact run.
	if missNoisy <= missExact {
		t.Errorf("missing: noisy %d <= exact %d", missNoisy, missExact)
	}
	if mistNoisy == 0 && missNoisy == 0 {
		t.Error("80%% error produced a perfect result, which is implausible")
	}
	// Mean local coordinate error must grow with noise.
	meanErr := func(r *Result) float64 {
		var s float64
		for _, e := range r.CoordError {
			s += e
		}
		return s / float64(len(r.CoordError))
	}
	if meanErr(resNoisy) <= meanErr(resExact) {
		t.Errorf("coord error: noisy %v <= exact %v", meanErr(resNoisy), meanErr(resExact))
	}
}

func TestDetectBallRadiusFactorHoleSelectivity(t *testing.T) {
	// Sec. II-A3: with r much larger than the cavity, the cavity's
	// boundary nodes disappear while the outer boundary (unbounded free
	// space) survives.
	_, net := fixtures(t)
	small, err := Detect(net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Detect(net, nil, Config{BallRadiusFactor: 2.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Groups) != 2 {
		t.Fatalf("default radius found %d groups, want 2", len(small.Groups))
	}
	if len(big.Groups) != 1 {
		t.Fatalf("enlarged radius found %d groups, want 1 (outer only)", len(big.Groups))
	}
}

func TestDegreeBaseline(t *testing.T) {
	net, _ := fixtures(t)
	if _, err := DegreeBaseline(nil); err != ErrNoNetwork {
		t.Errorf("nil network: err = %v", err)
	}
	mask, err := DegreeBaseline(net)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline is genuinely weak here: dense surface sampling gives
	// boundary nodes many same-surface neighbors, masking the degree
	// deficit. It only needs to be plausible, not good.
	correct, _, missing := classify(net, mask)
	recall := float64(correct) / float64(correct+missing)
	if recall < 0.1 {
		t.Errorf("baseline recall = %.3f, implausibly low", recall)
	}
	// UBF must beat the baseline on F1 at zero error — the reason the
	// paper's approach exists.
	ubf, err := Detect(net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f1 := func(found []bool) float64 {
		c, m, miss := classify(net, found)
		if c == 0 {
			return 0
		}
		p := float64(c) / float64(c+m)
		r := float64(c) / float64(c+miss)
		return 2 * p * r / (p + r)
	}
	if f1(ubf.Boundary) <= f1(mask) {
		t.Errorf("UBF F1 %.3f not better than baseline F1 %.3f", f1(ubf.Boundary), f1(mask))
	}
}
