package eval

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestEngineSchedulingIndependence: every Engine study must return
// byte-identical results regardless of the pool width or GOMAXPROCS —
// per-cell seeds are index-derived and the fold order is fixed, so
// scheduling must never show through. This is the acceptance gate for
// parallelizing the sweeps at all.
func TestEngineSchedulingIndependence(t *testing.T) {
	net, err := smallFig10().Generate()
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{0, 0.5}
	losses := []float64{0, 0.3}
	scenarios := []Scenario{smallFig10()}
	cfg := core.Config{}

	type outcome struct {
		sweep SweepResult
		agg   SweepResult
		fault FaultSweepResult
		abl   []AblationRow
	}
	runAll := func(e Engine) outcome {
		t.Helper()
		sweep, err := e.ErrorSweep(net, "test", levels, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := e.AggregateSweep(scenarios, levels, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fault, err := e.FaultSweep(net, "test", losses, 0.3, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		abl, err := e.Ablations(net, 0.3, 9)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{sweep, agg, fault, abl}
	}

	serial := runAll(Engine{Workers: 1})
	pooled := runAll(Engine{Workers: 8})
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatal("Engine results differ between Workers=1 and Workers=8")
	}

	// And under a different GOMAXPROCS (the zero-value Engine derives its
	// width from it).
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	wide := runAll(Engine{})
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("Engine results depend on GOMAXPROCS")
	}
}

// TestDefaultEngineMatchesSerial: the zero-value Engine's pool must
// reproduce a Workers=1 Engine run exactly.
func TestDefaultEngineMatchesSerial(t *testing.T) {
	net, err := smallFig10().Generate()
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{0, 0.5}
	cfg := core.Config{}

	fromPool, err := Engine{}.ErrorSweep(net, "test", levels, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	fromEngine, err := Engine{Workers: 1}.ErrorSweep(net, "test", levels, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromPool, fromEngine) {
		t.Fatal("the default pool's ErrorSweep diverges from the serial engine")
	}
}
