package eval

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/shapes"
)

// StandardFixtures are the three canonical comparison worlds — solid
// sphere (one boundary shell), cube with an internal hole (nested
// shells), torus (genus-1) — the same topology mix the sharded
// differential suite pins, sized for cross-detector studies.
func StandardFixtures() []Scenario {
	return []Scenario{
		{
			Name:          "sphere",
			MakeShape:     func() (shapes.Shape, error) { return shapes.NewBall(geom.Zero, 4), nil },
			SurfaceNodes:  400,
			InteriorNodes: 900,
			TargetDegree:  18,
			Seed:          60,
		},
		{
			Name: "cube-hole",
			MakeShape: func() (shapes.Shape, error) {
				return shapes.NewBoxWithHoles(geom.V(0, 0, 0), geom.V(10, 10, 10),
					[]geom.Sphere{{Center: geom.V(5, 5, 5), Radius: 1.8}})
			},
			SurfaceNodes:  450,
			InteriorNodes: 950,
			TargetDegree:  18,
			Seed:          61,
		},
		{
			Name:          "torus",
			MakeShape:     func() (shapes.Shape, error) { return shapes.NewTorus(5.5, 2.2) },
			SurfaceNodes:  700,
			InteriorNodes: 1100,
			TargetDegree:  18,
			Seed:          3,
		},
	}
}

// vocabTotals sums a cell's counter roll-up under the detector's declared
// obs vocabulary: msgs_sent and flood_rounds over its flood stages, plus
// its named per-node work keys. Deriving the keys from Vocab (instead of
// hard-coding the paper pipeline's "ubf/..." names) keeps the accounting
// correct for every registered detector.
func vocabTotals(det core.Detector, totals map[string]int64) (msgs, rounds, work int64) {
	v := det.Vocab()
	for _, s := range v.FloodStages {
		msgs += totals[s.String()+"/"+obs.CtrMsgsSent.String()]
		rounds += totals[s.String()+"/"+obs.CtrFloodRounds.String()]
	}
	for _, k := range v.WorkKeys {
		work += totals[k]
	}
	return msgs, rounds, work
}

// DetectorMatrix runs every named detector on every scenario under true
// coordinates and classifies each result against the scenario's
// ground-truth boundary, producing the cross-detector comparison cells
// fixture-major. cfg carries the shared knobs (Workers, Shards is forced
// to 0 — not every detector shards); cfg.Detector is ignored. Each cell
// records its own obs roll-up, so the message/round/work totals are
// filled whether or not the engine is observed.
func (e Engine) DetectorMatrix(scenarios []Scenario, detectors []string, cfg core.Config) ([]metrics.DetectorCell, error) {
	nets := make([]*netgen.Network, len(scenarios))
	err := par.For(len(scenarios), e.Workers, func(_, si int) error {
		net, err := scenarios[si].Generate()
		if err != nil {
			return err
		}
		nets[si] = net
		return nil
	})
	if err != nil {
		return nil, err
	}
	truths := make([][]bool, len(scenarios))
	for si, net := range nets {
		truths[si] = net.TrueBoundary()
	}

	cells := make([]metrics.DetectorCell, len(scenarios)*len(detectors))
	err = par.For(len(cells), e.Workers, func(_, ci int) error {
		si, di := ci/len(detectors), ci%len(detectors)
		sc, net := scenarios[si], nets[si]
		name := detectors[di]
		det, ok := core.LookupDetector(name)
		if !ok {
			return fmt.Errorf("%w %q", core.ErrUnknownDetector, name)
		}

		c := cfg
		c.Detector = name
		c.Shards = 0
		c.Coords = core.CoordsTrue
		runs := e.SustainedRuns
		if runs < 1 {
			runs = 1
		}
		// Counters come from the first run only (repeats are
		// bit-identical); every run's wall time lands in lat via a
		// StageDetect span, so the cell reports sustained-cost quantiles.
		ctrs := &obs.Metrics{}
		lat := &obs.Metrics{}
		cellObs, _, span := e.cellStart(fmt.Sprintf("%s/%s", sc.Name, det.Name()))
		var res *core.Result
		for r := 0; r < runs; r++ {
			var runObs obs.Observer
			if r == 0 {
				runObs = obs.Tee(cellObs, ctrs)
			}
			sp := obs.Start(lat, obs.StageDetect)
			rres, err := core.DetectContext(context.Background(), runObs, net, nil, c)
			sp.End()
			if err != nil {
				span.End()
				return fmt.Errorf("detector %s on %s: %w", det.Name(), sc.Name, err)
			}
			if r == 0 {
				res = rres
			}
		}
		span.End()
		class, err := metrics.Classify(truths[si], res.Boundary)
		if err != nil {
			return err
		}
		cell := metrics.DetectorCell{Detector: det.Name(), Fixture: sc.Name, Classification: class}
		cell.Messages, cell.Rounds, cell.Work = vocabTotals(det, ctrs.Totals())
		cell.Runs = runs
		snap := lat.Latency(obs.StageDetect)
		cell.P50NS, cell.P99NS = snap.Quantile(0.50), snap.Quantile(0.99)
		cells[ci] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// DetectorStudy bundles one detector's full evaluation: the error sweep,
// the fault sweep, and the vocabulary-derived ablation rows, all on one
// network.
type DetectorStudy struct {
	Detector  string
	Sweep     SweepResult
	Faults    FaultSweepResult
	Ablations []AblationRow
}

// DetectorStudies runs the sweep × fault × ablation matrix once per named
// detector on a shared network. Detectors without measurement support
// still sweep ranging-error levels — their flat quality curve versus the
// paper pipeline's degradation is itself a study result.
func (e Engine) DetectorStudies(net *netgen.Network, name string, detectors []string, levels, lossRates []float64, cfg core.Config, seed int64) ([]DetectorStudy, error) {
	out := make([]DetectorStudy, len(detectors))
	for di, dname := range detectors {
		if _, ok := core.LookupDetector(dname); !ok {
			return nil, fmt.Errorf("%w %q", core.ErrUnknownDetector, dname)
		}
		c := cfg
		c.Detector = dname
		c.Shards = 0
		sweep, err := e.ErrorSweep(net, name+"/"+dname, levels, c, seed)
		if err != nil {
			return nil, fmt.Errorf("detector %s: %w", dname, err)
		}
		faults, err := e.FaultSweep(net, name+"/"+dname, lossRates, 0, c, seed)
		if err != nil {
			return nil, fmt.Errorf("detector %s: %w", dname, err)
		}
		abl, err := e.AblationsCfg(net, 0, seed, c)
		if err != nil {
			return nil, fmt.Errorf("detector %s: %w", dname, err)
		}
		out[di] = DetectorStudy{Detector: dname, Sweep: sweep, Faults: faults, Ablations: abl}
	}
	return out, nil
}

// detectorNames resolves the study's detector list: nil means every
// registered detector.
func detectorNames(names []string) []string {
	if len(names) == 0 {
		return core.DetectorNames()
	}
	return names
}

// RunDetectorMatrix is the pool-default entry point for the comparison
// table: every registered detector over the standard fixtures at the
// given scale.
func RunDetectorMatrix(scale float64, cfg core.Config) ([]metrics.DetectorCell, error) {
	scenarios := StandardFixtures()
	if scale > 0 && math.Abs(scale-1) > 1e-9 {
		for i := range scenarios {
			scenarios[i] = scenarios[i].Scaled(scale)
		}
	}
	return Engine{}.DetectorMatrix(scenarios, detectorNames(nil), cfg)
}
