package eval

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/netgen"
	"repro/internal/shapes"
)

// smallFig10 is the sphere scenario scaled down for test runtime.
func smallFig10() Scenario { return Fig10().Scaled(0.4) }

func TestScenarioDefinitions(t *testing.T) {
	for _, sc := range AllScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if sc.Name == "" || sc.Figure == "" {
				t.Error("unnamed scenario")
			}
			shape, err := sc.MakeShape()
			if err != nil {
				t.Fatal(err)
			}
			if shape.SurfaceComponents() < 1 {
				t.Error("no surface components")
			}
			// Generate at a tiny scale to validate parameters without
			// paying full deployment cost.
			small := sc.Scaled(0.1)
			net, err := small.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if net.Len() != small.SurfaceNodes+small.InteriorNodes {
				t.Errorf("node count %d", net.Len())
			}
		})
	}
}

func TestScaled(t *testing.T) {
	sc := Fig1()
	small := sc.Scaled(0.5)
	if small.SurfaceNodes != sc.SurfaceNodes/2 {
		t.Errorf("surface nodes = %d", small.SurfaceNodes)
	}
	tiny := sc.Scaled(0.0001)
	if tiny.SurfaceNodes < 50 || tiny.InteriorNodes < 100 {
		t.Errorf("scale floor violated: %d %d", tiny.SurfaceNodes, tiny.InteriorNodes)
	}
}

func TestPaperErrorLevels(t *testing.T) {
	levels := PaperErrorLevels()
	if len(levels) != 11 || levels[0] != 0 || levels[10] != 1 {
		t.Errorf("levels = %v", levels)
	}
}

func TestRunErrorSweepShape(t *testing.T) {
	net, err := smallFig10().Generate()
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{0, 0.5, 1.0}
	sweep, err := Engine{}.ErrorSweep(net, "test", levels, core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 3 {
		t.Fatalf("points = %d", len(sweep.Points))
	}
	// The paper's headline shape: near-perfect at 0 %, degraded at 100 %.
	r0 := sweep.Points[0].Report
	r100 := sweep.Points[2].Report
	if r0.Recall() < 0.9 {
		t.Errorf("recall at 0%% = %.3f", r0.Recall())
	}
	if r100.Missing <= r0.Missing {
		t.Errorf("missing did not grow with error: %d -> %d", r0.Missing, r100.Missing)
	}
	// Tables render without panicking and with matching widths.
	h, rows := EfficiencyRows(sweep)
	if len(rows) != 3 || len(rows[0]) != len(h) {
		t.Errorf("efficiency rows malformed")
	}
	out := FormatTable(h, rows)
	if !strings.Contains(out, "error") || !strings.Contains(out, "50%") {
		t.Errorf("table:\n%s", out)
	}
	for _, missing := range []bool{false, true} {
		h, rows := DistributionRows(sweep, missing)
		if len(rows) != 3 || len(rows[0]) != len(h) {
			t.Errorf("distribution rows malformed")
		}
	}
}

func TestRunAggregateSweep(t *testing.T) {
	scenarios := []Scenario{Fig10().Scaled(0.25), Fig1().Scaled(0.15)}
	levels := []float64{0, 0.6}
	agg, err := Engine{}.AggregateSweep(scenarios, levels, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Points) != 2 {
		t.Fatalf("points = %d", len(agg.Points))
	}
	// Aggregate true-boundary counts must equal the scenario sum.
	var wantTrue int
	for _, sc := range scenarios {
		net, err := sc.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range net.Nodes {
			if n.OnSurface {
				wantTrue++
			}
		}
	}
	if agg.Points[0].Report.TrueBoundary != wantTrue {
		t.Errorf("aggregate true = %d, want %d", agg.Points[0].Report.TrueBoundary, wantTrue)
	}
}

func TestRunScenario(t *testing.T) {
	rep, err := RunScenarioContext(context.Background(), nil, smallFig10(), 0, core.Config{}, mesh.Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups < 1 {
		t.Error("no boundary groups")
	}
	if rep.Detection.Recall() < 0.85 {
		t.Errorf("recall = %.3f", rep.Detection.Recall())
	}
	if len(rep.Surfaces) != rep.Groups {
		t.Errorf("surfaces %d != groups %d", len(rep.Surfaces), rep.Groups)
	}
	if rep.Routing.Trials == 0 {
		t.Error("routing experiment did not run")
	}
	h, rows := ScenarioRows([]*ScenarioReport{rep})
	if len(rows) != 1 || len(rows[0]) != len(h) {
		t.Error("scenario rows malformed")
	}
}

func TestRunMeshErrorStudy(t *testing.T) {
	net, err := smallFig10().Generate()
	if err != nil {
		t.Fatal(err)
	}
	shape, err := smallFig10().MakeShape()
	if err != nil {
		t.Fatal(err)
	}
	field, ok := shape.(shapes.DistanceField)
	if !ok {
		t.Fatal("fig10 shape lacks a distance field")
	}
	points, err := RunMeshErrorStudy(net, []float64{0, 0.3}, core.Config{}, mesh.Config{K: 4}, 5, field)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Landmarks == 0 || p.Faces == 0 {
			t.Errorf("empty mesh at error %.0f%%", p.ErrorFrac*100)
		}
		// Landmarks are detected boundary nodes: they must hug the true
		// surface within ~1.5 radio ranges even under noise.
		if p.MeanDeviation <= 0 || p.MeanDeviation > 1.5 {
			t.Errorf("mean deviation = %v R at error %.0f%%", p.MeanDeviation, p.ErrorFrac*100)
		}
		if p.MaxDeviation < p.MeanDeviation {
			t.Errorf("max %v < mean %v", p.MaxDeviation, p.MeanDeviation)
		}
	}
	h, rows := MeshErrorRows(points)
	if len(rows) != 2 || len(rows[0]) != len(h) {
		t.Error("mesh error rows malformed")
	}
}

func TestRunComplexityStudy(t *testing.T) {
	make := func(deg float64) (*netgen.Network, error) {
		sc := smallFig10()
		sc.TargetDegree = deg
		return sc.Generate()
	}
	points, err := RunComplexityStudy(make, []float64{10, 20}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Theorem 1: work grows superlinearly with degree.
	if points[1].AvgBalls <= points[0].AvgBalls {
		t.Errorf("balls did not grow: %v", points)
	}
	if points[1].AvgChecks <= 2*points[0].AvgChecks {
		t.Errorf("checks did not grow superlinearly: %v", points)
	}
	h, rows := ComplexityRows(points)
	if len(rows) != 2 || len(rows[0]) != len(h) {
		t.Error("complexity rows malformed")
	}
}

func TestRunAblations(t *testing.T) {
	net, err := smallFig10().Generate()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Engine{}.Ablations(net, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full, ok := byName["full-pipeline"]
	if !ok {
		t.Fatal("full-pipeline variant missing")
	}
	noIFF := byName["no-iff"]
	// IFF can only shrink the found set.
	if noIFF.Report.Found < full.Report.Found {
		t.Errorf("IFF increased found: %d vs %d", full.Report.Found, noIFF.Report.Found)
	}
	// Large unit balls suppress detections relative to r=1 (the outer
	// boundary survives but smaller features vanish).
	if byName["r=2.0"].Report.Found > full.Report.Found {
		t.Errorf("r=2.0 found more than r=1")
	}
	// The baseline should trail the full pipeline on F1.
	if byName["degree-baseline"].Report.F1() >= full.Report.F1() {
		t.Errorf("baseline F1 %.3f >= pipeline %.3f",
			byName["degree-baseline"].Report.F1(), full.Report.F1())
	}
	h, out := AblationRows(rows)
	if len(out) != len(rows) || len(out[0]) != len(h) {
		t.Error("ablation rows malformed")
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"a", "long"}, [][]string{{"xxxx", "1"}})
	want := "a     long\n----  ----\nxxxx  1   \n"
	if out != want {
		t.Errorf("table = %q, want %q", out, want)
	}
}

func TestRunSurfaceTools(t *testing.T) {
	rep, err := RunSurfaceTools(smallFig10(), mesh.Config{K: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EmbedRMSD <= 0 || rep.EmbedRMSD > 4 {
		t.Errorf("embed rmsd = %v radio ranges", rep.EmbedRMSD)
	}
	if rep.PartitionK < 1 || rep.Balance < 1 {
		t.Errorf("partition: k=%d balance=%v", rep.PartitionK, rep.Balance)
	}
	// Recovery can only help.
	if rep.RecoveryRate < rep.GreedyRate {
		t.Errorf("recovery %.3f < greedy %.3f", rep.RecoveryRate, rep.GreedyRate)
	}
	if rep.RecoveryRate < 0.99 {
		t.Errorf("recovery delivery = %.3f, want ~1 on a connected overlay", rep.RecoveryRate)
	}
	h, rows := SurfaceToolsRows([]*SurfaceToolsReport{rep})
	if len(rows) != 1 || len(rows[0]) != len(h) {
		t.Error("surface tools rows malformed")
	}
}

func TestRunLocalizationStudy(t *testing.T) {
	net, err := smallFig10().Generate()
	if err != nil {
		t.Fatal(err)
	}
	points, err := RunLocalizationStudy(net, []float64{0, 0.5}, core.Config{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Frame error grows with ranging error and p95 dominates the mean.
	if points[1].MeanFrameRMSD <= points[0].MeanFrameRMSD {
		t.Errorf("frame error did not grow: %+v", points)
	}
	for _, p := range points {
		if p.P95FrameRMSD < p.MeanFrameRMSD {
			t.Errorf("p95 < mean at %.0f%%: %+v", p.ErrorFrac*100, p)
		}
	}
	h, rows := LocalizationRows(points)
	if len(rows) != 2 || len(rows[0]) != len(h) {
		t.Error("localization rows malformed")
	}
}
