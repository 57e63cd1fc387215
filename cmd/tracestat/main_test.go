package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obs/ftdc"
)

// writeTrace records a tiny valid trace to a file.
func writeTrace(t *testing.T, dir, name string, msgs int64) string {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	j.RoundBegin(obs.StageIFF, 0)
	j.RoundEnd(obs.StageIFF, 0, obs.RoundStats{Sent: msgs, Delivered: msgs, Active: 2})
	j.Count(obs.StageIFF, obs.CtrMsgsSent, msgs)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// reset clears and returns the buffer, keeping the call sites short.
func reset(b *bytes.Buffer) *bytes.Buffer {
	b.Reset()
	return b
}

// TestTraceModesAndEnvelope covers the two trace modes: single-trace
// analysis with a JSON report envelope, and the trace-vs-trace diff's
// exit contract.
func TestTraceModesAndEnvelope(t *testing.T) {
	dir := t.TempDir()
	a := writeTrace(t, dir, "a.jsonl", 10)
	same := writeTrace(t, dir, "same.jsonl", 10)
	drifted := writeTrace(t, dir, "drifted.jsonl", 20)
	outPath := filepath.Join(dir, "report.json")

	var out bytes.Buffer
	opts := options{Trace: a, Out: outPath, TolWall: -1}
	if err := run(&out, opts); err != nil {
		t.Fatalf("single-trace mode: %v", err)
	}
	if !strings.Contains(out.String(), "no anomalies") {
		t.Errorf("report: %q", out.String())
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	env, data, err := cli.ReadEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if env.Tool != "tracestat" {
		t.Errorf("envelope tool = %q", env.Tool)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "trace" || len(rep.Curves) == 0 {
		t.Errorf("envelope payload: %+v", rep)
	}

	opts = options{Trace: same, Against: a, TolWall: -1}
	if err := run(reset(&out), opts); err != nil {
		t.Errorf("identical trace diff: %v", err)
	}
	opts = options{Trace: drifted, Against: a, TolWall: -1}
	if err := run(reset(&out), opts); !errors.Is(err, errFindings) {
		t.Errorf("drifted trace diff: err = %v, want errFindings", err)
	}
}

// TestFailOnAnomaly: a non-quiescent trace passes by default and fails
// with -fail-on-anomaly.
func TestFailOnAnomaly(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	j.RoundBegin(obs.StageIFF, 0)
	j.RoundEnd(obs.StageIFF, 0, obs.RoundStats{Sent: 5, Delivered: 3, Active: 2})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "stuck.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run(&out, options{Trace: path, TolWall: -1}); err != nil {
		t.Fatalf("anomalous trace without -fail-on-anomaly: %v", err)
	}
	if !strings.Contains(out.String(), "non_quiescence") {
		t.Errorf("report does not surface the anomaly: %q", out.String())
	}
	err := run(reset(&out), options{Trace: path, TolWall: -1, FailOnAnomaly: true})
	if !errors.Is(err, errFindings) {
		t.Errorf("err = %v, want errFindings", err)
	}
}

// TestUsageErrors: ambiguous or empty invocations are usage errors, never
// the findings sentinel.
func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	for _, opts := range []options{
		{},
		{Trace: "/nonexistent/trace.jsonl"},
		{FTDC: "/nonexistent/capdir"},
	} {
		err := run(&out, opts)
		if err == nil || errors.Is(err, errFindings) {
			t.Errorf("opts %+v: err = %v, want usage error", opts, err)
		}
	}
	// Both inputs at once is ambiguous.
	err := run(&out, options{Trace: "x.jsonl", FTDC: "capdir"})
	if want := "pass exactly one of -trace, -ftdc"; err == nil || err.Error() != want {
		t.Errorf("trace+ftdc: err = %v, want %q", err, want)
	}
}

// writeFTDC records a small capture ring: a Metrics sink fed a known
// stream, sampled start and stop.
func writeFTDC(t *testing.T, dir string, msgs int64) string {
	t.Helper()
	path := filepath.Join(dir, "cap")
	ring, err := ftdc.OpenRing(path, ftdc.RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Metrics
	s := ftdc.StartSampler(&m, ring, time.Hour) // ticks never fire; start+stop samples only
	m.Count(obs.StageIFF, obs.CtrMsgsSent, msgs)
	m.StageEnd(obs.StageIFF, "", 1_000_000)
	m.StageEnd(obs.StageIFF, "", 2_000_000)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFTDCModeAndGates: -ftdc decodes a ring, renders counters and
// latency quantiles, and diffs two captures through the trace
// tolerances, a drift past them being an exit-1 finding.
func TestFTDCModeAndGates(t *testing.T) {
	dir := t.TempDir()
	capA := writeFTDC(t, filepath.Join(dir, "a"), 100)

	var out bytes.Buffer
	outPath := filepath.Join(dir, "report.json")
	if err := run(&out, options{FTDC: capA, Out: outPath}); err != nil {
		t.Fatalf("ftdc analyze: %v", err)
	}
	for _, want := range []string{"iff/msgs_sent", "2 samples", "p99"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	env, data, err := cli.ReadEnvelope(raw)
	if err != nil || env.Tool != "tracestat" {
		t.Fatalf("envelope: %v (tool %q)", err, env.Tool)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "ftdc" || rep.FTDC == nil || rep.FTDC.Counters["iff/msgs_sent"] != 100 {
		t.Fatalf("ftdc report payload wrong: %+v", rep.FTDC)
	}
	if rep.FTDC.Latencies["iff"].Count != 2 || rep.FTDC.Latencies["iff"].P99NS <= 0 {
		t.Fatalf("latency payload wrong: %+v", rep.FTDC.Latencies)
	}

	// Diff: identical counters pass, drifted counters regress.
	capSame := writeFTDC(t, filepath.Join(dir, "same"), 100)
	if err := run(reset(&out), options{FTDC: capA, Against: capSame, TolWall: -1}); err != nil {
		t.Fatalf("identical captures diffed dirty: %v", err)
	}
	capDrift := writeFTDC(t, filepath.Join(dir, "drift"), 150)
	if err := run(reset(&out), options{FTDC: capDrift, Against: capA, TolWall: -1}); !errors.Is(err, errFindings) {
		t.Errorf("drifted capture: err = %v, want errFindings", err)
	}
	// -ftdc is exclusive with the other inputs.
	if err := run(reset(&out), options{FTDC: capA, Trace: "x.jsonl"}); err == nil || errors.Is(err, errFindings) {
		t.Errorf("ftdc+trace: err = %v, want usage error", err)
	}
}

// TestReportParamsNameTheInputs: the -out envelope's params name the
// inputs of the mode that ran — an FTDC report names its capture, a
// diff both of its inputs.
func TestReportParamsNameTheInputs(t *testing.T) {
	dir := t.TempDir()
	capA := writeFTDC(t, filepath.Join(dir, "a"), 100)
	capB := writeFTDC(t, filepath.Join(dir, "b"), 100)
	trA := writeTrace(t, dir, "a.jsonl", 10)
	trB := writeTrace(t, dir, "b.jsonl", 10)
	outPath := filepath.Join(dir, "report.json")
	for _, tc := range []struct {
		name string
		opts options
		want map[string]any
	}{
		{"ftdc", options{FTDC: capA},
			map[string]any{"ftdc": capA, "against": ""}},
		{"ftdc-diff", options{FTDC: capA, Against: capB, TolWall: -1},
			map[string]any{"ftdc": capA, "against": capB}},
		{"trace-diff", options{Trace: trA, Against: trB, TolWall: -1},
			map[string]any{"trace": trA, "against": trB}},
	} {
		tc.opts.Out = outPath
		if err := run(&bytes.Buffer{}, tc.opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		env, _, err := cli.ReadEnvelope(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(env.Params, tc.want) {
			t.Errorf("%s: params %v, want %v", tc.name, env.Params, tc.want)
		}
	}
}
