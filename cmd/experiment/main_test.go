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

// opt builds the common tiny-run options for tests.
func opt(run string, scale float64, k int) options {
	return options{Run: run, Scale: scale, K: k}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opt("nope", 0.1, 3)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunFig1gTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opt("fig1g", 0.03, 3)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 1(g)") {
		t.Errorf("missing table title:\n%s", out)
	}
	// All 11 error levels present.
	for _, level := range []string{"0%", "50%", "100%"} {
		if !strings.Contains(out, level) {
			t.Errorf("missing level %s", level)
		}
	}
}

func TestRunScenarioAndCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	o := opt("fig10", 0.05, 4)
	o.CSV = dir
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig10-sphere") {
		t.Errorf("scenario row missing:\n%s", buf.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6-10.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fig10-sphere") {
		t.Errorf("CSV content wrong:\n%s", data)
	}
}

func TestRunThm1Tiny(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opt("thm1", 0.05, 3)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Theorem 1") {
		t.Errorf("missing theorem table:\n%s", buf.String())
	}
}

func TestRunAblationTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opt("ablation", 0.03, 3)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, variant := range []string{"full-pipeline", "degree-baseline", "true-coords"} {
		if !strings.Contains(out, variant) {
			t.Errorf("missing variant %s", variant)
		}
	}
}

func TestRunFig1jklTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opt("fig1jkl", 0.03, 4)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mesh quality") {
		t.Errorf("missing mesh table:\n%s", buf.String())
	}
}

func TestRunFaultsTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opt("faults", 0.05, 3)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "message loss") {
		t.Errorf("missing table title:\n%s", out)
	}
	for _, col := range []string{"recall%", "retransmits", "abandoned"} {
		if !strings.Contains(out, col) {
			t.Errorf("missing column %s:\n%s", col, out)
		}
	}
	for _, level := range []string{"0%", "5%", "50%"} {
		if !strings.Contains(out, level) {
			t.Errorf("missing loss level %s", level)
		}
	}
}

// TestRunTablesWorkerInvariant: -workers does not change the printed
// tables.
func TestRunTablesWorkerInvariant(t *testing.T) {
	tables := func(workers int) string {
		var buf bytes.Buffer
		o := opt("thm1", 0.05, 3)
		o.Workers = workers
		if err := run(&buf, o); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if l == "" || strings.HasPrefix(l, "done in ") {
				continue
			}
			kept = append(kept, l)
		}
		return strings.Join(kept, "\n")
	}
	if serial, wide := tables(1), tables(2); serial != wide {
		t.Errorf("tables differ between -workers 1 and -workers 2:\n%s\n---\n%s", serial, wide)
	}
}

// TestRunTraceAndEnvelope: a faulty async run with -trace/-out writes a
// schema-valid JSONL (per-stage spans, message counters) and a results
// envelope, and tracing does not change the printed tables.
func TestRunTraceAndEnvelope(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	outPath := filepath.Join(dir, "results.json")

	var plain bytes.Buffer
	po := opt("faults", 0.05, 3)
	po.Async = true
	if err := run(&plain, po); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	o := opt("faults", 0.05, 3)
	o.Async = true
	o.Trace = trace
	o.Out = outPath
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}

	// Tracing must not perturb the results: compare the outputs with the
	// run-specific status lines (envelope/trace paths, wall time) removed.
	tables := func(s string) string {
		var kept []string
		for _, l := range strings.Split(s, "\n") {
			if l == "" || strings.HasPrefix(l, "done in ") ||
				strings.HasPrefix(l, "wrote results") || strings.HasPrefix(l, "trace:") {
				continue
			}
			kept = append(kept, l)
		}
		return strings.Join(kept, "\n")
	}
	if tables(plain.String()) != tables(buf.String()) {
		t.Errorf("tables differ with tracing on:\n%s\n---\n%s", plain.String(), buf.String())
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, sum, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("trace failed validation: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	for _, s := range []obs.Stage{obs.StageDetect, obs.StageUBF, obs.StageIFF, obs.StageGrouping, obs.StageExperiment, obs.StageCell} {
		if sum.Spans(s) == 0 {
			t.Errorf("no %s spans in trace", s)
		}
	}
	// The faulty async run must account its messages through the fault
	// layer: attempts, deliveries, and (at the sweep's high loss rates)
	// drops and retransmissions.
	for _, c := range []obs.Counter{obs.CtrMsgsSent, obs.CtrMsgsDelivered, obs.CtrMsgsDropped, obs.CtrMsgsRetransmitted} {
		if sum.CounterTotal(c) == 0 {
			t.Errorf("counter %s absent from faulty-async trace", c)
		}
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	env, data, err := cli.ReadEnvelope(raw)
	if err != nil {
		t.Fatalf("results envelope: %v", err)
	}
	if env.Tool != "experiment" {
		t.Errorf("envelope tool %q, want experiment", env.Tool)
	}
	if !strings.Contains(string(data), "message loss") {
		t.Errorf("envelope payload missing table: %s", data)
	}
}
