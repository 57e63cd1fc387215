package eval

// Sweep-level differential for the sharded detection engine: an error
// sweep run with Config.Shards set must classify every cell exactly as
// the unsharded sweep does. metrics.Report carries only outcome counts
// (no message traffic), so the comparison is plain equality.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/shapes"
)

func TestErrorSweepShardedMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep differential is long")
	}
	net, err := netgen.Generate(netgen.Config{
		Shape:           shapes.NewBall(geom.Zero, 3),
		SurfaceNodes:    150,
		InteriorNodes:   350,
		TargetAvgDegree: 16,
		Seed:            77,
	})
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{0, 0.1, 0.3}
	base, err := Engine{}.ErrorSweep(net, "sharded-diff", levels, core.Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Engine{}.ErrorSweep(net, "sharded-diff", levels, core.Config{Shards: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Points) != len(base.Points) {
		t.Fatalf("point count %d != %d", len(sharded.Points), len(base.Points))
	}
	for i, p := range base.Points {
		q := sharded.Points[i]
		if q.ErrorFrac != p.ErrorFrac {
			t.Fatalf("level %d: error frac %v != %v", i, q.ErrorFrac, p.ErrorFrac)
		}
		if !reflect.DeepEqual(q.Report, p.Report) {
			t.Errorf("level %.2f: sharded report %+v, want %+v", p.ErrorFrac, q.Report, p.Report)
		}
	}
}
