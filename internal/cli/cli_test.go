package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestCommonRegisterDefaults: the shared flag block parses with its
// documented defaults and accepts the conventional overrides.
func TestCommonRegisterDefaults(t *testing.T) {
	var c Common
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Seed != 0 || c.Workers != 0 || c.Out != "" || c.Trace != "" || c.Pprof != "" {
		t.Errorf("defaults wrong: %+v", c)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	c = Common{}
	c.Register(fs)
	if err := fs.Parse([]string{"-seed", "42", "-workers", "3", "-out", "o.json", "-trace", "t.jsonl", "-pprof", "p"}); err != nil {
		t.Fatal(err)
	}
	if c.Seed != 42 || c.Workers != 3 || c.Out != "o.json" || c.Trace != "t.jsonl" || c.Pprof != "p" {
		t.Errorf("parsed values wrong: %+v", c)
	}
}

// TestCommonValidateRejectsNegative pins the config-seam fix: negative
// -workers and -shards used to sail through Start into the worker pool
// and partitioner, where they were silently clamped; now every command
// fails fast at the flag seam.
func TestCommonValidateRejectsNegative(t *testing.T) {
	for name, c := range map[string]Common{
		"workers": {Workers: -1},
		"shards":  {Shards: -2},
		"both":    {Workers: -4, Shards: -4},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
		if s, err := c.Start(); err == nil {
			s.Close()
			t.Errorf("%s: Start accepted %+v", name, c)
		}
	}
	if err := (Common{Workers: 0, Shards: 0}).Validate(); err != nil {
		t.Errorf("zero values rejected: %v", err)
	}
	if err := (Common{Workers: 8, Shards: 4}).Validate(); err != nil {
		t.Errorf("positive values rejected: %v", err)
	}
}

// TestSessionTraceLifecycle: Start wires a JSONL observer, Close validates
// the written trace and surfaces its summary.
func TestSessionTraceLifecycle(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	c := Common{Trace: trace}
	s, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if s.Obs == nil {
		t.Fatal("no observer with -trace set")
	}
	span := obs.Start(s.Obs, obs.StageDetect)
	obs.Add(s.Obs, obs.StageUBF, obs.CtrBallsTested, 3)
	span.End()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Events != 3 {
		t.Errorf("trace events = %d, want 3", s.Events)
	}
	if s.Summary.Total(obs.StageUBF, obs.CtrBallsTested) != 3 {
		t.Errorf("summary counters wrong: %v", s.Summary.Totals())
	}
	if _, err := os.Stat(trace); err != nil {
		t.Errorf("trace file missing: %v", err)
	}
}

// TestSessionZeroOptions: no trace, no profile — the session is inert and
// its observer nil, preserving the no-op pipeline path.
func TestSessionZeroOptions(t *testing.T) {
	s, err := Common{}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if s.Obs != nil {
		t.Error("zero-option session has an observer")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var nilSession *Session
	if err := nilSession.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCloseInvalidTrace: Close re-validates the written trace and
// must fail when the file does not conform to the schema, so a command
// propagating Close's error exits nonzero on a corrupt trace. The session
// writes no events of its own (nothing buffered to flush over the
// injected garbage), and a second handle appends a non-JSONL line before
// Close runs validation.
func TestSessionCloseInvalidTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	c := Common{Trace: trace}
	s, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(trace, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("this is not a trace event\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	err = s.Close()
	if err == nil {
		t.Fatal("Close accepted a trace that fails schema validation")
	}
	if !strings.Contains(err.Error(), "schema") {
		t.Errorf("Close error does not name schema validation: %v", err)
	}
}

// TestSessionPprof: the -pprof prefix produces both profile files.
func TestSessionPprof(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "prof")
	s, err := Common{Pprof: prefix}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Errorf("profile %s missing: %v", suffix, err)
		}
	}
}

// TestEnvelopeRoundTrip: WriteEnvelope output reads back with the framing
// fields intact and the payload raw.
func TestEnvelopeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	c := Common{Seed: 7, Workers: 2, Shards: 4}
	env := c.NewEnvelope("testtool", map[string]any{"k": 3.0}, map[string]string{"hello": "world"})
	if err := WriteEnvelope(path, env); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, data, err := ReadEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "testtool" || got.Seed != 7 || got.Workers != 2 || got.Shards != 4 || got.Params["k"] != 3.0 {
		t.Errorf("envelope framing wrong: %+v", got)
	}
	var payload map[string]string
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload["hello"] != "world" {
		t.Errorf("payload wrong: %v", payload)
	}
}

// TestReadEnvelopeRejectsLegacy: non-envelope JSON fails with
// ErrNotEnvelope specifically, so callers can fall back to their legacy
// formats on exactly that error and no other.
func TestReadEnvelopeRejectsLegacy(t *testing.T) {
	for name, raw := range map[string]string{
		"bare object":          `{"nodes": [1, 2, 3]}`,
		"no data":              `{"tool": "x"}`,
		"no tool":              `{"data": {"nodes": []}}`,
		"trailing whitespace":  `{"nodes": [1]}` + "\n\t \n",
		"legacy network shape": `{"radius": 1.5, "nodes": [{"x": 0, "y": 0, "z": 0}]}`,
	} {
		if _, _, err := ReadEnvelope([]byte(raw)); !errors.Is(err, ErrNotEnvelope) {
			t.Errorf("%s: got %v, want ErrNotEnvelope", name, err)
		}
	}
}

// TestReadEnvelopeMalformed pins the trailing-data fix: a concatenated or
// garbage-suffixed file used to parse "successfully" as its first JSON
// document. These must all hard-fail, and never with ErrNotEnvelope — a
// caller must not reinterpret them as a legacy payload.
func TestReadEnvelopeMalformed(t *testing.T) {
	envelope := `{"tool": "netgen", "data": {"radius": 1}}`
	cases := map[string]struct {
		raw  string
		want string // substring the error must mention ("" = any)
	}{
		"two concatenated envelopes": {envelope + "\n" + envelope, "trailing data"},
		"envelope plus garbage":      {envelope + " trailing-garbage", "trailing data"},
		"legacy plus second doc":     {`{"radius": 1}{"radius": 2}`, "trailing data"},
		"truncated envelope":         {envelope[:len(envelope)-5], ""},
		"empty input":                {"", ""},
		"top-level array":            {`[1, 2, 3]`, ""},
		"not json":                   {`nope`, ""},
	}
	for name, tc := range cases {
		_, _, err := ReadEnvelope([]byte(tc.raw))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if errors.Is(err, ErrNotEnvelope) && tc.want != "" {
			t.Errorf("%s: classified as legacy fallback: %v", name, err)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", name, err, tc.want)
		}
	}

	// A well-formed envelope with the conventional trailing newline (as
	// WriteEnvelope emits) must still parse.
	if _, _, err := ReadEnvelope([]byte(envelope + "\n")); err != nil {
		t.Errorf("trailing newline rejected: %v", err)
	}
}

// TestMarshalRaw embeds writer-style output as raw JSON.
func TestMarshalRaw(t *testing.T) {
	raw, err := MarshalRaw(func(w *bytes.Buffer) error {
		w.WriteString(`{"a": 1}`)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"a"`) {
		t.Errorf("raw payload wrong: %s", raw)
	}
	env := Envelope{Tool: "t", Data: raw}
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"data":{"a":1}`) {
		t.Errorf("raw message did not inline: %s", out)
	}
}
