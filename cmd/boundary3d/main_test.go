package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/obs"
)

func TestPickScenario(t *testing.T) {
	for _, name := range []string{"fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig10-sphere"} {
		if _, err := pickScenario(name); err != nil {
			t.Errorf("pickScenario(%q): %v", name, err)
		}
	}
	if _, err := pickScenario("bogus"); err == nil {
		t.Error("bogus scenario accepted")
	}
}

func TestRunEndToEndWithArtifacts(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "out")
	var buf bytes.Buffer
	o := options{Scenario: "fig10", ErrorFrac: 0.1, K: 4, Scale: 0.2, Artifacts: prefix, Refine: true}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"-network.json", "-boundary.json", "-surface0.off", "-surface0.obj"} {
		info, err := os.Stat(prefix + suffix)
		if err != nil {
			t.Errorf("artifact %s missing: %v", suffix, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("artifact %s empty", suffix)
		}
	}
}

func TestRunTrueCoordsNoArtifacts(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{Scenario: "fig10", K: 4, Scale: 0.2, TrueCoords: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{Scenario: "nope", K: 3, Scale: 1}); err != nil {
		if !strings.Contains(err.Error(), "unknown scenario") {
			t.Fatalf("wrong error: %v", err)
		}
		return
	}
	t.Fatal("unknown scenario accepted")
}

// TestRunTraceAndSummaryEnvelope: -trace writes a schema-valid JSONL with
// detection and mesh stage spans, and -out writes the summary envelope.
func TestRunTraceAndSummaryEnvelope(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	outPath := filepath.Join(dir, "summary.json")
	var buf bytes.Buffer
	o := options{Scenario: "fig10", ErrorFrac: 0.1, K: 4, Scale: 0.2}
	o.Trace = trace
	o.Out = outPath
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := obs.ValidateTrace(f)
	if err != nil {
		t.Fatalf("trace failed validation: %v", err)
	}
	for _, s := range []obs.Stage{obs.StageDetect, obs.StageUBF, obs.StageSurface, obs.StageTriangulate} {
		if sum.Spans(s) == 0 {
			t.Errorf("no %s spans in trace", s)
		}
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	env, data, err := cli.ReadEnvelope(raw)
	if err != nil {
		t.Fatalf("summary envelope: %v", err)
	}
	if env.Tool != "boundary3d" {
		t.Errorf("envelope tool %q, want boundary3d", env.Tool)
	}
	if !strings.Contains(string(data), "\"scenario\"") {
		t.Errorf("summary payload wrong: %s", data)
	}
}
