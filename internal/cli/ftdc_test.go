package cli_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/obs/ftdc"
)

// TestSessionFTDCExactCapture is the acceptance gate for the capture
// path: one run yields one aggregate. A session with both -trace and
// -ftdc runs a detection; the trace replayed at Close must snapshot to
// exactly the final ring sample (minus the sampler's ts/unix_ns stamp),
// key for key and latency buckets included, and so must an in-memory
// sink fed the same event stream — exact equality, not tolerance.
func TestSessionFTDCExactCapture(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ftdc")
	c := cli.Common{FTDC: dir, Trace: filepath.Join(t.TempDir(), "trace.jsonl")}
	sess, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Metrics == nil {
		t.Fatal("-ftdc session has no Metrics sink")
	}

	sc := eval.StandardFixtures()[0].Scaled(0.1)
	net, err := sc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mem := &obs.Mem{}
	o := obs.Tee(sess.Obs, mem)
	if _, err := core.DetectContext(context.Background(), o, net, nil, core.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if sess.FTDC.Samples < 2 { // initial + final at minimum
		t.Fatalf("ring stats report %d samples, want >= 2", sess.FTDC.Samples)
	}

	samples, stats, err := ftdc.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != sess.FTDC.Samples {
		t.Fatalf("decoded %d samples, ring wrote %d", stats.Samples, sess.FTDC.Samples)
	}
	var ring []obs.Metric
	for _, m := range samples[len(samples)-1].Metrics {
		if m.Key != "ts/unix_ns" {
			ring = append(ring, m)
		}
	}
	if got := sess.Summary.Snapshot(nil); !reflect.DeepEqual(got, ring) {
		t.Fatalf("replayed trace diverged from the final ring sample:\n trace %v\n ring  %v", got, ring)
	}
	if got := mem.Snapshot(nil); !reflect.DeepEqual(got, ring) {
		t.Fatalf("in-memory sink diverged from the final ring sample:\n mem  %v\n ring %v", got, ring)
	}
	// Per-stage latency quantiles are present for every spanned stage.
	for _, stage := range []obs.Stage{obs.StageDetect, obs.StageUBF, obs.StageIFF} {
		stat := sess.Summary.Latency(stage).Stats()
		if stat.Count == 0 || stat.Count != int64(mem.Spans(stage)) {
			t.Fatalf("stage %s: trace has %d spans, mem %d", stage, stat.Count, mem.Spans(stage))
		}
		if stat.P50NS <= 0 || stat.P99NS < stat.P50NS || stat.MaxNS < stat.P99NS {
			t.Fatalf("stage %s: quantiles not sane: %+v", stage, stat)
		}
	}
}

// TestFTDCCaptureBitIdentity: telemetry never changes verdicts. Over the
// three standard fixtures, detection under a live FTDC capture session
// must produce bit-identical boundaries and groups to an unobserved run.
func TestFTDCCaptureBitIdentity(t *testing.T) {
	c := cli.Common{FTDC: filepath.Join(t.TempDir(), "ftdc")}
	sess, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	for _, sc := range eval.StandardFixtures() {
		sc = sc.Scaled(0.1)
		net, err := sc.Generate()
		if err != nil {
			t.Fatal(err)
		}
		off, err := core.DetectContext(context.Background(), nil, net, nil, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		on, err := core.DetectContext(context.Background(), sess.Obs, net, nil, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(off.Boundary, on.Boundary) {
			t.Fatalf("%s: capture changed the boundary verdicts", sc.Name)
		}
		if !reflect.DeepEqual(off.Groups, on.Groups) {
			t.Fatalf("%s: capture changed the boundary groups", sc.Name)
		}
	}
}

// TestSessionFTDCVocabUnion: AllDetectorVocabStages admits every
// registered detector's stages, and a session can widen to it.
func TestSessionFTDCVocabUnion(t *testing.T) {
	stages := cli.AllDetectorVocabStages()
	seen := map[obs.Stage]bool{}
	for _, s := range stages {
		if seen[s] {
			t.Fatalf("duplicate stage %s in union", s)
		}
		seen[s] = true
	}
	for _, name := range core.DetectorNames() {
		d, _ := core.LookupDetector(name)
		for _, s := range d.Vocab().Stages {
			if !seen[s] {
				t.Fatalf("union misses %s's stage %s", name, s)
			}
		}
	}
	// A nil session tolerates the setter (mirrors the nil-safe Close).
	var nilSess *cli.Session
	nilSess.SetVocabStages(stages)
}
