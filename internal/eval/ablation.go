package eval

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/obs"
)

// AblationRow is one pipeline variant's detection quality on a fixed
// network and error level.
type AblationRow struct {
	Variant string
	Report  metrics.Report
	// Observed is the variant's obs counter roll-up ("stage/counter" →
	// total); nil unless the study ran under an observed Engine.
	Observed map[string]int64
}

// ablationVariant is one pipeline configuration of the ablation study.
// run receives the study cell's context and observer.
type ablationVariant struct {
	name string
	run  func(ctx context.Context, o obs.Observer) ([]bool, error)
}

// ablationVariants enumerates the paper pipeline's study configurations
// over a fixed network and measurement. The order defines the row order.
func ablationVariants(net *netgen.Network, meas *netgen.Measurement) []ablationVariant {
	return ablationVariantsFor(net, meas, core.Config{})
}

// ablationVariantsFor derives the variant list from the configured
// detector's capability bitmask and obs vocabulary instead of assuming
// the paper pipeline: the paper detector keeps the historical 11-variant
// study, while other detectors get the subset that is meaningful for
// them — the shared refinement (IFF) knobs always, the coordinate-source
// variants only when the detector declares CapMeasurement (a detector
// that ignores ranging has no "true-coords" ablation to run), and the
// degree-threshold reference row always. base carries the shared knobs
// (Workers, Detector) into every variant.
func ablationVariantsFor(net *netgen.Network, meas *netgen.Measurement, base core.Config) []ablationVariant {
	det, ok := core.LookupDetector(base.Detector)
	if !ok {
		det, _ = core.LookupDetector("")
	}
	detect := func(mut func(c *core.Config), withMeas bool) func(context.Context, obs.Observer) ([]bool, error) {
		cfg := base
		if mut != nil {
			mut(&cfg)
		}
		return func(ctx context.Context, o obs.Observer) ([]bool, error) {
			m := meas
			if !withMeas {
				m = nil
			}
			res, err := core.DetectContext(ctx, o, net, m, cfg)
			if err != nil {
				return nil, err
			}
			return res.Boundary, nil
		}
	}
	degreeBaseline := ablationVariant{"degree-baseline", func(context.Context, obs.Observer) ([]bool, error) {
		return core.DegreeBaseline(net)
	}}
	if det.Name() == core.DefaultDetector {
		return []ablationVariant{
			{"full-pipeline", detect(nil, true)},
			{"no-iff", detect(func(c *core.Config) { c.IFFThreshold = -1 }, true)},
			{"one-hop-scope", detect(func(c *core.Config) { c.Scope = core.ScopeOneHop }, true)},
			{"one-hop-no-iff", detect(func(c *core.Config) { c.Scope = core.ScopeOneHop; c.IFFThreshold = -1 }, true)},
			{"true-coords", detect(func(c *core.Config) { c.Coords = core.CoordsTrue }, false)},
			{"r=1.5", detect(func(c *core.Config) { c.BallRadiusFactor = 1.5 }, true)},
			{"r=2.0", detect(func(c *core.Config) { c.BallRadiusFactor = 2.0 }, true)},
			{"iff-theta=10", detect(func(c *core.Config) { c.IFFThreshold = 10 }, true)},
			{"iff-theta=40", detect(func(c *core.Config) { c.IFFThreshold = 40 }, true)},
			{"iff-ttl=2", detect(func(c *core.Config) { c.IFFTTL = 2 }, true)},
			degreeBaseline,
		}
	}
	hasMeas := det.Caps().Has(core.CapMeasurement)
	variants := []ablationVariant{
		{"full-pipeline", detect(nil, hasMeas)},
		{"no-refine", detect(func(c *core.Config) { c.IFFThreshold = -1 }, hasMeas)},
		{"refine-theta=10", detect(func(c *core.Config) { c.IFFThreshold = 10 }, hasMeas)},
		{"refine-ttl=2", detect(func(c *core.Config) { c.IFFTTL = 2 }, hasMeas)},
	}
	if hasMeas {
		variants = append(variants, ablationVariant{
			"true-coords", detect(func(c *core.Config) { c.Coords = core.CoordsTrue }, false),
		})
	}
	return append(variants, degreeBaseline)
}

// AblationRows renders the ablation study as a table.
func AblationRows(rows []AblationRow) (header []string, out [][]string) {
	header = []string{"variant", "found", "correct", "mistaken", "missing",
		"precision%", "recall%", "f1%"}
	for _, r := range rows {
		c := r.Report.Classification
		out = append(out, []string{
			r.Variant,
			fmt.Sprint(c.Found), fmt.Sprint(c.Correct),
			fmt.Sprint(c.Mistaken), fmt.Sprint(c.Missing),
			fmt.Sprintf("%.1f", 100*c.Precision()),
			fmt.Sprintf("%.1f", 100*c.Recall()),
			fmt.Sprintf("%.1f", 100*c.F1()),
		})
	}
	return header, out
}
