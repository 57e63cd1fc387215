package eval

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/ranging"
	"repro/internal/routing"
)

// ScenarioReport is the per-scenario summary behind Figs. 6–10: detection
// quality at a given error level, the discovered boundary count, and the
// quality of every reconstructed surface, plus greedy routing on the
// largest surface (the application the paper motivates).
type ScenarioReport struct {
	Name       string
	Figure     string
	Stats      netgen.Stats
	ErrorFrac  float64
	Detection  metrics.Report
	WantGroups int // boundary surfaces the deployment shape implies
	Groups     int // boundary groups the pipeline discovered
	Surfaces   []mesh.Quality
	Routing    routing.Stats
}

// RunScenarioContext deploys one scenario, detects its boundaries at the
// given ranging error, reconstructs every boundary surface, and runs the
// greedy routing experiment on the largest one. The detection pipeline
// and every surface construction emit their stage events to o (nil for
// none) under a labeled StageCell span.
func RunScenarioContext(ctx context.Context, o obs.Observer, sc Scenario, errorFrac float64, detectCfg core.Config, meshCfg mesh.Config) (*ScenarioReport, error) {
	shape, err := sc.MakeShape()
	if err != nil {
		return nil, err
	}
	net, err := sc.Generate()
	if err != nil {
		return nil, err
	}
	rep := &ScenarioReport{
		Name:       sc.Name,
		Figure:     sc.Figure,
		Stats:      net.Stats(),
		ErrorFrac:  errorFrac,
		WantGroups: shape.SurfaceComponents(),
	}

	span := obs.StartLabeled(o, obs.StageCell, fmt.Sprintf("%s/err=%g", sc.Name, errorFrac))
	defer span.End()
	meas := net.Measure(ranging.ForFraction(errorFrac), sc.Seed*7)
	det, err := core.DetectContext(ctx, o, net, meas, detectCfg)
	if err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	rep.Detection, err = metrics.Evaluate(net.G, net.TrueBoundary(), det.Boundary, MaxHops)
	if err != nil {
		return nil, err
	}
	rep.Groups = len(det.Groups)

	surfaces, err := mesh.BuildAllContext(ctx, o, net.G, det.Groups, meshCfg)
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	var largest *mesh.Surface
	for _, s := range surfaces {
		rep.Surfaces = append(rep.Surfaces, s.Quality)
		if largest == nil || len(s.Group) > len(largest.Group) {
			largest = s
		}
	}
	if largest != nil && len(largest.Landmarks.IDs) >= 2 {
		overlay := routing.NewOverlay(largest, func(n int) geom.Vec3 { return net.Nodes[n].Pos })
		rep.Routing, err = overlay.Experiment(300, sc.Seed)
		if err != nil {
			return nil, fmt.Errorf("routing: %w", err)
		}
	}
	return rep, nil
}

// ScenarioRows renders scenario reports as one table row each.
func ScenarioRows(reports []*ScenarioReport) (header []string, rows [][]string) {
	header = []string{"scenario", "nodes", "degree", "recall%", "precision%",
		"groups", "wantGroups", "meshes(V/E/F)", "closed", "routing%"}
	for _, r := range reports {
		meshes := ""
		closed := 0
		for i, q := range r.Surfaces {
			if i > 0 {
				meshes += " "
			}
			meshes += fmt.Sprintf("%d/%d/%d", q.V, q.E, q.F)
			if q.Closed2Manifold {
				closed++
			}
		}
		rows = append(rows, []string{
			r.Name,
			fmt.Sprint(r.Stats.Nodes),
			fmt.Sprintf("%.1f", r.Stats.AvgDegree),
			fmt.Sprintf("%.1f", 100*r.Detection.Recall()),
			fmt.Sprintf("%.1f", 100*r.Detection.Precision()),
			fmt.Sprint(r.Groups),
			fmt.Sprint(r.WantGroups),
			meshes,
			fmt.Sprintf("%d/%d", closed, len(r.Surfaces)),
			fmt.Sprintf("%.1f", 100*r.Routing.SuccessRate),
		})
	}
	return header, rows
}
