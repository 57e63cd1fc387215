package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/obs/ftdc"
	"repro/internal/serve"
	"repro/internal/shapes"
)

// TestRejectsNegativeFlags: the shared config seam rejects negative
// -workers/-shards before the server starts. The shutdown channel is
// closed, so a run that wrongly starts serving returns instead of
// blocking.
func TestRejectsNegativeFlags(t *testing.T) {
	var buf bytes.Buffer
	stop := make(chan struct{})
	close(stop)
	o := options{Addr: "127.0.0.1:0", shutdown: stop}
	o.Workers = -1
	if err := run(&buf, o); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("negative -workers: %v", err)
	}
	o = options{Addr: "127.0.0.1:0", shutdown: stop}
	o.Shards = -2
	if err := run(&buf, o); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("negative -shards: %v", err)
	}
}

// lockedWriter lets the serving goroutine and the test share the output
// buffer.
type lockedWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *lockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// post sends a JSON body and decodes the response, failing the test on
// any status other than want.
func post(t *testing.T, url string, body any, want int, out any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != want {
		t.Fatalf("POST %s: status %s, want %d", url, res.Status, want)
	}
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
}

// TestServeAndShutdown: the serving path binds, answers, and drains
// cleanly when asked to stop. It serves a paper session and an
// sv-contour session under -trace and -ftdc: Close must validate a trace
// that carries the serve and incremental vocabulary (and the sv-contour
// detector's own stages), and the FTDC ring must hold a start and a
// final sample, a schema record and nonzero serve and incremental p99s.
func TestServeAndShutdown(t *testing.T) {
	dir := t.TempDir()
	stop := make(chan struct{})
	var out lockedWriter
	o := options{Addr: "127.0.0.1:0", shutdown: stop}
	o.Trace = filepath.Join(dir, "trace.jsonl")
	o.FTDC = filepath.Join(dir, "cap")
	o.FTDCInterval = 50 * time.Millisecond
	done := make(chan error, 1)
	go func() { done <- run(&out, o) }()

	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address:\n%s", out.String())
		}
		if s := out.String(); strings.Contains(s, "listening on http://") {
			line := s[strings.Index(s, "http://")+len("http://"):]
			base = "http://" + strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	res, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", res.Status)
	}

	network, err := netgen.Generate(netgen.Config{
		Shape:           shapes.NewBall(geom.Zero, 3),
		SurfaceNodes:    60,
		InteriorNodes:   80,
		TargetAvgDegree: 14,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cli.MarshalRaw(func(buf *bytes.Buffer) error {
		return export.WriteNetworkJSON(buf, network)
	})
	if err != nil {
		t.Fatal(err)
	}
	env := cli.Envelope{Tool: "netgen", Data: raw}
	p := network.Positions()[0].Add(geom.V(network.Radius/3, 0, 0))
	batch := map[string]any{"deltas": []map[string]any{
		{"op": "move", "node": 0, "pos": map[string]float64{"x": p.X, "y": p.Y, "z": p.Z}},
	}}
	for _, query := range []string{"", "?detector=sv-contour"} {
		var sum serve.Summary
		post(t, base+"/v1/sessions"+query, env, http.StatusCreated, &sum)
		var resp struct {
			Applied int `json:"applied"`
		}
		post(t, base+"/v1/sessions/"+sum.Session+"/deltas", batch, http.StatusOK, &resp)
		if resp.Applied != 1 {
			t.Fatalf("session %q: applied %d of 1 delta", query, resp.Applied)
		}
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "shutdown requested") {
		t.Errorf("missing shutdown line:\n%s", out.String())
	}

	trace, err := os.ReadFile(o.Trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"serve"`, `"incremental"`, `"sessions"`, `"deltas_applied"`, `"dirty_ubf_nodes"`} {
		if !strings.Contains(string(trace), want) {
			t.Errorf("trace missing %s", want)
		}
	}

	samples, stats, err := ftdc.ReadDir(o.FTDC)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples < 2 || stats.SchemaChanges < 1 {
		t.Errorf("ftdc capture: %d samples, %d schema records; want >= 2 and >= 1", stats.Samples, stats.SchemaChanges)
	}
	var final obs.Metrics
	final.Load(samples[len(samples)-1].Metrics)
	for _, stage := range []obs.Stage{obs.StageServe, obs.StageIncremental} {
		if p99 := final.Latency(stage).Stats().P99NS; p99 <= 0 {
			t.Errorf("ftdc final sample: stage %q p99 = %d, want > 0", stage, p99)
		}
	}
}
