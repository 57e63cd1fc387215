package eval

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/ranging"
	"repro/internal/sim"
)

// Engine runs the evaluation studies on a bounded worker pool, one cell —
// a (scenario, level) pair or an ablation variant — per pool task. Every
// cell derives its seeds from the cell's own indices exactly as the serial
// loops did, and results land in index-addressed slots folded in a fixed
// order, so an Engine sweep is byte-identical to the serial one regardless
// of Workers or GOMAXPROCS (asserted by TestEngineSchedulingIndependence).
//
// The zero value uses GOMAXPROCS workers. The per-cell pipeline itself
// parallelizes with cfg.Workers; both knobs default to GOMAXPROCS, which
// oversubscribes mildly and keeps the machine busy through the serial
// tails of uneven cells.
type Engine struct {
	// Workers bounds the number of concurrently running cells.
	// Zero or negative means runtime.GOMAXPROCS(0).
	Workers int
	// Obs, when non-nil, observes every cell: a labeled StageCell span
	// per cell (concurrent cells interleave their events), the full
	// pipeline instrumentation inside it, and a per-cell counter roll-up
	// attached to the cell's result row (SweepPoint.Observed and
	// friends). A nil Obs leaves results bit-identical to the seed
	// engine's.
	Obs obs.Observer
	// SustainedRuns makes DetectorMatrix run each cell's detection this
	// many times (0 or 1 = once), recording every run's wall time into a
	// latency histogram so the comparison table reports sustained-cost
	// quantiles (p50/p99) instead of a single cold measurement. Counter
	// roll-ups always come from the first run only — repeat runs are
	// bit-identical, so folding them in would just multiply the totals.
	SustainedRuns int
}

// cellStart opens one evaluation cell: a labeled span on the engine's
// observer plus a per-cell Metrics teed into it, so the cell's counters
// can be rolled up onto its result row. Everything is nil/inert when the
// engine is unobserved.
func (e Engine) cellStart(label string) (obs.Observer, *obs.Metrics, obs.Span) {
	if e.Obs == nil {
		return nil, nil, obs.Span{}
	}
	m := &obs.Metrics{}
	return obs.Tee(e.Obs, m), m, obs.StartLabeled(e.Obs, obs.StageCell, label)
}

// rollup flattens a cell's counter totals; a nil Metrics yields nil.
func rollup(m *obs.Metrics) map[string]int64 {
	if m == nil {
		return nil
	}
	return m.Totals()
}

// ErrorSweep measures one network across distance-measurement error
// levels: at each level the network is re-ranged with the paper's uniform
// model, the full detection pipeline runs on MDS coordinates, and the
// outcome is classified against ground truth. Level 0 uses exact ranging.
// Levels run concurrently, each with the measurement seed a serial loop
// would use (seed + level index), so the result is identical to a serial
// run.
func (e Engine) ErrorSweep(net *netgen.Network, name string, levels []float64, cfg core.Config, seed int64) (SweepResult, error) {
	res := SweepResult{Scenario: name, Points: make([]SweepPoint, len(levels))}
	truth := net.TrueBoundary()
	err := par.For(len(levels), e.Workers, func(_, li int) error {
		level := levels[li]
		meas := net.Measure(ranging.ForFraction(level), seed+int64(li))
		cellObs, mem, span := e.cellStart(fmt.Sprintf("%s/err=%g", name, level))
		det, err := core.DetectContext(context.Background(), cellObs, net, meas, cfg)
		span.End()
		if err != nil {
			return fmt.Errorf("error level %.0f%%: %w", level*100, err)
		}
		report, err := metrics.Evaluate(net.G, truth, det.Boundary, MaxHops)
		if err != nil {
			return err
		}
		res.Points[li] = SweepPoint{ErrorFrac: level, Report: report, Observed: rollup(mem)}
		return nil
	})
	if err != nil {
		return SweepResult{}, err
	}
	return res, nil
}

// AggregateSweep runs the error sweep over several scenarios and sums
// the reports per error level — the >10 000-boundary-node aggregate of
// Fig. 11. All (scenario, level) cells run concurrently — network
// generation is per scenario, so it happens once — and the per-level
// reports are folded in scenario order, matching the serial accumulation
// exactly.
func (e Engine) AggregateSweep(scenarios []Scenario, levels []float64, cfg core.Config) (SweepResult, error) {
	agg := SweepResult{Scenario: "aggregate"}
	agg.Points = make([]SweepPoint, len(levels))
	for i, level := range levels {
		agg.Points[i].ErrorFrac = level
	}
	if len(scenarios) == 0 || len(levels) == 0 {
		return agg, nil
	}

	// Phase 1: generate scenario networks (each is expensive).
	nets := make([]*netgen.Network, len(scenarios))
	err := par.For(len(scenarios), e.Workers, func(_, si int) error {
		net, err := scenarios[si].Generate()
		if err != nil {
			return fmt.Errorf("scenario %s: %w", scenarios[si].Name, err)
		}
		nets[si] = net
		return nil
	})
	if err != nil {
		return SweepResult{}, err
	}

	// Phase 2: every (scenario, level) cell, seeded exactly as a serial
	// per-scenario error sweep seeds it.
	cells := make([]metrics.Report, len(scenarios)*len(levels))
	truths := make([][]bool, len(scenarios))
	for si, net := range nets {
		truths[si] = net.TrueBoundary()
	}
	err = par.For(len(cells), e.Workers, func(_, ci int) error {
		si, li := ci/len(levels), ci%len(levels)
		sc, net, level := scenarios[si], nets[si], levels[li]
		meas := net.Measure(ranging.ForFraction(level), sc.Seed*1000+int64(li))
		cellObs, _, span := e.cellStart(fmt.Sprintf("%s/err=%g", sc.Name, level))
		det, err := core.DetectContext(context.Background(), cellObs, net, meas, cfg)
		span.End()
		if err != nil {
			return fmt.Errorf("scenario %s: error level %.0f%%: %w", sc.Name, level*100, err)
		}
		report, err := metrics.Evaluate(net.G, truths[si], det.Boundary, MaxHops)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		cells[ci] = report
		return nil
	})
	if err != nil {
		return SweepResult{}, err
	}

	// Fixed fold order: scenarios outer, levels inner — the serial order.
	for si := range scenarios {
		for li := range levels {
			if err := agg.Points[li].Report.Add(cells[si*len(levels)+li]); err != nil {
				return SweepResult{}, err
			}
		}
	}
	return agg, nil
}

// FaultSweep measures one network across message-loss levels. At each
// level the full pipeline runs with the fault layer injecting unbounded
// random loss (no per-link cap, so delivery is NOT guaranteed) and the
// hardened retransmitting floods doing their best within their fixed
// budget of 3 retransmissions per packet; the outcome is classified
// against ground truth. Level 0 reproduces the fault-free run.
// Measurement error is fixed at errorFrac with exact ranging when zero.
// Loss levels run concurrently, each with a serial loop's fault seed
// (seed + 101·level index) and measurement seed (seed + level index).
func (e Engine) FaultSweep(net *netgen.Network, name string, lossRates []float64, errorFrac float64, cfg core.Config, seed int64) (FaultSweepResult, error) {
	res := FaultSweepResult{Scenario: name, Points: make([]FaultPoint, len(lossRates))}
	truth := net.TrueBoundary()
	err := par.For(len(lossRates), e.Workers, func(_, li int) error {
		loss := lossRates[li]
		c := cfg
		if loss > 0 {
			c.Faults = sim.FaultConfig{
				Seed:     seed + int64(li)*101,
				DropRate: loss,
			}
		}
		var meas *netgen.Measurement
		if errorFrac > 0 {
			meas = net.Measure(ranging.ForFraction(errorFrac), seed+int64(li))
		}
		cellObs, mem, span := e.cellStart(fmt.Sprintf("%s/loss=%g", name, loss))
		det, err := core.DetectContext(context.Background(), cellObs, net, meas, c)
		span.End()
		if err != nil {
			return fmt.Errorf("loss level %.0f%%: %w", loss*100, err)
		}
		report, err := metrics.Evaluate(net.G, truth, det.Boundary, MaxHops)
		if err != nil {
			return err
		}
		pt := FaultPoint{LossRate: loss, Report: report, Observed: rollup(mem)}
		pt.Faults.Add(det.FaultStats)
		res.Points[li] = pt
		return nil
	})
	if err != nil {
		return FaultSweepResult{}, err
	}
	return res, nil
}

// Ablations compares the paper's design choices on one network at one
// ranging-error level:
//
//   - the full pipeline (two-hop scope, MDS frames, IFF);
//   - UBF without IFF (Sec. II-B's motivation);
//   - the literal one-hop Algorithm 1 scope (with and without IFF);
//   - the true-coordinate oracle (localization removed);
//   - unit-ball radius factors (hole-size selectivity, Sec. II-A3);
//   - IFF threshold/TTL variants around the icosahedron defaults;
//   - the degree-threshold baseline.
//
// The variants run concurrently on the shared network and measurement;
// rows keep the fixed variant order.
func (e Engine) Ablations(net *netgen.Network, errorFrac float64, seed int64) ([]AblationRow, error) {
	return e.AblationsCfg(net, errorFrac, seed, core.Config{})
}

// AblationsCfg is Ablations with an explicit base config: cfg.Detector
// selects whose variant list runs (derived from the detector's
// capabilities, see ablationVariantsFor), and the remaining fields ride
// into every variant.
func (e Engine) AblationsCfg(net *netgen.Network, errorFrac float64, seed int64, cfg core.Config) ([]AblationRow, error) {
	truth := net.TrueBoundary()
	meas := net.Measure(ranging.ForFraction(errorFrac), seed)
	variants := ablationVariantsFor(net, meas, cfg)

	rows := make([]AblationRow, len(variants))
	err := par.For(len(variants), e.Workers, func(_, vi int) error {
		v := variants[vi]
		cellObs, mem, span := e.cellStart("ablation/" + v.name)
		found, err := v.run(context.Background(), cellObs)
		span.End()
		if err != nil {
			return fmt.Errorf("variant %s: %w", v.name, err)
		}
		report, err := metrics.Evaluate(net.G, truth, found, MaxHops)
		if err != nil {
			return err
		}
		rows[vi] = AblationRow{Variant: v.name, Report: report, Observed: rollup(mem)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
