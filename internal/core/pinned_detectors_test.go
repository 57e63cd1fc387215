package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/ranging"
	"repro/internal/shapes"
	"repro/internal/sim"
)

// detectorPin summarizes one detection run: the verdict counts, the
// summed per-node work, the group count and the message totals.
type detectorPin struct {
	UBF, Boundary     int
	FragmentSum       int
	BallsTested       int
	Groups            int
	IFFMsgs           int
	GroupingMsgs      int
	CandidateMsgs     int
	Retransmits, Acks int
	Abandoned         int
}

func pinOf(res *Result) detectorPin {
	p := detectorPin{
		Groups:        len(res.Groups),
		IFFMsgs:       res.IFFMessages,
		GroupingMsgs:  res.GroupingMessages,
		CandidateMsgs: res.CandidateMessages,
		Retransmits:   res.FaultStats.Retransmits,
		Acks:          res.FaultStats.Acks,
		Abandoned:     res.FaultStats.Abandoned,
	}
	for i := range res.UBF {
		if res.UBF[i] {
			p.UBF++
		}
		if res.Boundary[i] {
			p.Boundary++
		}
		p.FragmentSum += res.FragmentSize[i]
		p.BallsTested += res.BallsTested[i]
	}
	return p
}

// pinNetwork is a small seeded cube with one spherical hole: two
// boundary surfaces, sparse enough that every detector's parameters
// (ball size, stitching threshold, enclosure margin, degree fraction)
// decide some verdicts.
func pinNetwork(t *testing.T) *netgen.Network {
	t.Helper()
	shape, err := shapes.NewBoxWithHoles(geom.V(0, 0, 0), geom.V(6, 6, 6),
		[]geom.Sphere{{Center: geom.V(3, 3, 3), Radius: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := netgen.Generate(netgen.Config{
		Shape:           shape,
		SurfaceNodes:    400,
		InteriorNodes:   700,
		TargetAvgDegree: 15,
		Seed:            83,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestPinnedDetectorOutputs pins what every registered detector returns
// on one seeded fixture: under true coordinates, under 20% uniform
// ranging error for the detectors that consume a measurement, and under
// recoverable and unrecoverable message loss for the paper pipeline. A
// wrong value for a fixed parameter (the stitching threshold, the
// competitors' margin and fraction, the retransmission budget and delay,
// the SMACOF sweep count; ε and the interior tolerance only if they
// reach ~1e-3) shows up here as a moved count.
func TestPinnedDetectorOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every detector on a 1 100-node network")
	}
	net := pinNetwork(t)
	meas := net.Measure(ranging.UniformAdditive{Fraction: 0.2}, 19)
	bounded := sim.FaultConfig{Seed: 23, DropRate: 0.25, MaxDropsPerLink: 2, DelayRate: 0.2, MaxExtraDelay: 2}
	unbounded := sim.FaultConfig{Seed: 29, DropRate: 0.5}

	want := map[string]detectorPin{
		"paper/true":           {UBF: 540, Boundary: 533, FragmentSum: 22462, BallsTested: 140112, Groups: 2, IFFMsgs: 91926, GroupingMsgs: 20891},
		"paper/mds":            {UBF: 515, Boundary: 475, FragmentSum: 19955, BallsTested: 147361, Groups: 1, IFFMsgs: 71431, GroupingMsgs: 16849},
		"sv-enclosure/true":    {UBF: 507, Boundary: 495, FragmentSum: 22693, BallsTested: 37769, Groups: 1, IFFMsgs: 105686, GroupingMsgs: 22725},
		"sv-enclosure/mds":     {UBF: 75, FragmentSum: 425, BallsTested: 43815, IFFMsgs: 1188},
		"sv-contour/true":      {UBF: 577, Boundary: 513, FragmentSum: 22607, Groups: 1, IFFMsgs: 105369, GroupingMsgs: 22898, CandidateMsgs: 65992},
		"degree-stats/true":    {UBF: 177, FragmentSum: 1027, IFFMsgs: 2469},
		"paper/bounded-sync":   {UBF: 540, Boundary: 533, FragmentSum: 22462, BallsTested: 140112, Groups: 2, IFFMsgs: 206810, GroupingMsgs: 39082, Retransmits: 8041, Acks: 121076},
		"paper/bounded-async":  {UBF: 540, Boundary: 533, FragmentSum: 22462, BallsTested: 140112, Groups: 2, IFFMsgs: 214893, GroupingMsgs: 36854, Retransmits: 6749, Acks: 123864},
		"paper/unbounded-sync": {UBF: 540, Boundary: 533, FragmentSum: 21502, BallsTested: 140112, Groups: 2, IFFMsgs: 193115, GroupingMsgs: 26355, Retransmits: 167200, Acks: 73292, Abandoned: 29074},
		"degree-baseline":      {Boundary: 220},
	}

	got := map[string]detectorPin{}
	for _, name := range DetectorNames() {
		det, _ := LookupDetector(name)
		res, err := Detect(net, nil, Config{Detector: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name+"/true"] = pinOf(res)
		if det.Caps().Has(CapMeasurement) {
			res, err := Detect(net, meas, Config{Detector: name})
			if err != nil {
				t.Fatalf("%s under MDS: %v", name, err)
			}
			got[name+"/mds"] = pinOf(res)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paper/bounded-sync", Config{Faults: bounded}},
		{"paper/bounded-async", Config{Async: true, AsyncSeed: 31, Faults: bounded}},
		{"paper/unbounded-sync", Config{Faults: unbounded}},
	} {
		res, err := Detect(net, nil, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[tc.name] = pinOf(res)
	}
	mask, err := DegreeBaseline(net)
	if err != nil {
		t.Fatal(err)
	}
	var baseline detectorPin
	for _, b := range mask {
		if b {
			baseline.Boundary++
		}
	}
	got["degree-baseline"] = baseline

	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned value; got %#v", name, g)
			continue
		}
		if g != w {
			t.Errorf("%s:\n got %#v\nwant %#v", name, g, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but not run", name)
		}
	}
}
