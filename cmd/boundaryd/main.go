// Command boundaryd is the boundary-detection server: it holds loaded
// networks as sessions and recomputes boundaries incrementally as clients
// stream join/leave/move/crash deltas.
//
// Usage:
//
//	boundaryd -addr 127.0.0.1:8338            # serve until SIGINT/SIGTERM
//	boundaryd -smoke                          # self-check and exit
//
// The API is documented in internal/serve. The shared flags (-seed,
// -workers, -shards, -trace, -pprof, -ftdc) follow the repository-wide
// convention; -workers and -shards set the per-session defaults, and
// -trace records every request span, session counter and incremental
// dirty-region counter as a JSONL trace readable with cmd/tracestat.
// -ftdc captures the same counter set plus per-stage latency histograms
// into a delta-encoded binary ring (decode with tracestat -ftdc), and
// GET /v1/metrics serves a live JSON snapshot — counter totals and
// latency quantiles, global and per session.
//
// -smoke runs the serve smoke harness instead of listening forever: it
// starts the server on an ephemeral port, POSTs a generated network over
// real HTTP, streams scripted delta batches, and after every batch diffs
// the served boundary groups — and the reconstructed boundary surfaces
// from GET /v1/sessions/{id}/mesh — against a from-scratch recompute of
// the same active node set, landmark positions compared exactly. It also
// checks that a topology-only detector session answers the mesh route
// with 501, and that a non-incremental detector's session serves meshes
// that match a full rebuild across a delta batch. Any divergence, HTTP
// failure, or (with -trace) trace schema violation exits nonzero —
// `make serve-smoke` and `make mesh-smoke` wire this into CI.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/netgen"
	"repro/internal/serve"
)

type options struct {
	Addr        string
	MaxSessions int
	Smoke       bool
	SmokeScale  float64
	SmokeDeltas int
	cli.Common

	// shutdown, when non-nil, substitutes for the process signals so
	// tests can stop a serving run deterministically.
	shutdown <-chan struct{}
}

func main() {
	var opts options
	flag.StringVar(&opts.Addr, "addr", "127.0.0.1:8338", "listen address")
	flag.IntVar(&opts.MaxSessions, "max-sessions", 0, "concurrent session cap (0 = 64)")
	flag.BoolVar(&opts.Smoke, "smoke", false, "run the serve smoke harness and exit")
	flag.Float64Var(&opts.SmokeScale, "smoke-scale", 0.08, "node-count scale of the smoke network")
	flag.IntVar(&opts.SmokeDeltas, "smoke-deltas", 30, "deltas the smoke harness streams")
	opts.Common.Register(flag.CommandLine)
	flag.Parse()

	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "boundaryd:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, opts options) error {
	// Realize the shared observability options. A Close failure — a trace
	// that failed schema validation — must surface as a nonzero exit even
	// when serving succeeded, so it is only swallowed when a run error
	// already won.
	sess, err := opts.Common.Start()
	if err != nil {
		return err
	}
	// The server hosts sessions on any registered detector, so the trace
	// may legitimately carry every detector's stage vocabulary.
	sess.SetVocabStages(cli.AllDetectorVocabStages())
	closed := false
	defer func() {
		if !closed {
			sess.Close()
		}
	}()
	finish := func() error {
		closed = true
		err := sess.Close()
		if opts.FTDC != "" {
			fmt.Fprintf(w, "ftdc: %d samples, %d schema writes, %d segments in %s\n",
				sess.FTDC.Samples, sess.FTDC.SchemaWrites, sess.FTDC.Segments, opts.FTDC)
		}
		return err
	}

	srv := serve.New(serve.Options{
		Obs:         sess.Obs,
		Workers:     opts.Workers,
		Shards:      opts.Shards,
		Detector:    opts.Detector,
		MaxSessions: opts.MaxSessions,
	})

	if opts.Smoke {
		if err := smoke(w, srv, opts); err != nil {
			return err
		}
		return finish()
	}

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(w, "boundaryd: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	if opts.shutdown == nil {
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
	}
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			return err
		}
	case sig := <-sigc:
		fmt.Fprintf(w, "boundaryd: %v, shutting down\n", sig)
	case <-opts.shutdown:
		fmt.Fprintln(w, "boundaryd: shutdown requested")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	return finish()
}

// smoke drives the server end to end over real HTTP and diffs every
// served result against a from-scratch recompute.
func smoke(w io.Writer, srv *serve.Server, opts options) error {
	sc := eval.Fig10().Scaled(opts.SmokeScale)
	if opts.Seed != 0 {
		sc.Seed = opts.Seed
	}
	network, err := sc.Generate()
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()
	base := "http://" + ln.Addr().String()

	// POST the network wrapped in the shared envelope, as netgen -out
	// writes it.
	raw, err := cli.MarshalRaw(func(buf *bytes.Buffer) error {
		return export.WriteNetworkJSON(buf, network)
	})
	if err != nil {
		return err
	}
	body, err := json.Marshal(opts.Common.NewEnvelope("netgen", nil, raw))
	if err != nil {
		return err
	}
	var created serve.Summary
	if err := postJSON(base+"/v1/sessions", body, http.StatusCreated, &created); err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	fmt.Fprintf(w, "smoke: session %s nodes=%d boundary=%d groups=%d\n",
		created.Session, created.Nodes, created.BoundaryCount, created.GroupCount)

	// Mirror of the session's stable-ID state for the reference
	// recomputes and the delta script.
	pos := network.Positions()
	active := make([]bool, len(pos))
	for i := range active {
		active[i] = true
	}
	activeCount := len(pos)
	bounds := boundsOf(pos)
	cfg := opts.Common.DetectConfig()

	rng := rand.New(rand.NewSource(sc.Seed + 1))
	batch := 5
	var latencies []time.Duration
	applied := 0
	for applied < opts.SmokeDeltas {
		n := batch
		if rest := opts.SmokeDeltas - applied; rest < n {
			n = rest
		}
		var wire []map[string]any
		var joins []int
		for k := 0; k < n; k++ {
			switch op := rng.Intn(4); {
			case op == 0: // join
				p := geom.V(
					bounds[0].X+rng.Float64()*(bounds[1].X-bounds[0].X),
					bounds[0].Y+rng.Float64()*(bounds[1].Y-bounds[0].Y),
					bounds[0].Z+rng.Float64()*(bounds[1].Z-bounds[0].Z),
				)
				joins = append(joins, len(pos))
				pos = append(pos, p)
				active = append(active, true)
				activeCount++
				wire = append(wire, map[string]any{"op": "join", "pos": vec(p)})
			case op == 1: // move
				id := pickActive(rng, active)
				p := pos[id].Add(geom.V(
					(rng.Float64()-0.5)*network.Radius,
					(rng.Float64()-0.5)*network.Radius,
					(rng.Float64()-0.5)*network.Radius,
				))
				pos[id] = p
				wire = append(wire, map[string]any{"op": "move", "node": id, "pos": vec(p)})
			case activeCount > 50: // leave or crash
				id := pickActive(rng, active)
				active[id] = false
				activeCount--
				kind := "leave"
				if op == 3 {
					kind = "crash"
				}
				wire = append(wire, map[string]any{"op": kind, "node": id})
			default: // too few nodes left: join instead
				p := bounds[0].Add(bounds[1]).Scale(0.5)
				joins = append(joins, len(pos))
				pos = append(pos, p)
				active = append(active, true)
				activeCount++
				wire = append(wire, map[string]any{"op": "join", "pos": vec(p)})
			}
		}
		body, err := json.Marshal(map[string]any{"deltas": wire})
		if err != nil {
			return err
		}
		var resp struct {
			Applied int   `json:"applied"`
			Joined  []int `json:"joined"`
		}
		t0 := time.Now()
		if err := postJSON(base+"/v1/sessions/"+created.Session+"/deltas", body, http.StatusOK, &resp); err != nil {
			return fmt.Errorf("delta batch at %d: %w", applied, err)
		}
		latencies = append(latencies, time.Since(t0))
		if resp.Applied != n {
			return fmt.Errorf("batch applied %d of %d deltas", resp.Applied, n)
		}
		for k, id := range resp.Joined {
			if k >= len(joins) || joins[k] != id {
				return fmt.Errorf("join assigned ID %d, mirror predicted %v", id, joins)
			}
		}
		applied += n

		if err := diffAgainstFull(base, created.Session, pos, active, network.Radius, cfg); err != nil {
			return fmt.Errorf("after %d deltas: %w", applied, err)
		}
		// The mesh endpoint mid-delta-stream: cached or repaired, every
		// served surface must equal a from-scratch build.
		if err := diffMeshAgainstFull(base, created.Session, pos, active, network.Radius, cfg); err != nil {
			return fmt.Errorf("mesh after %d deltas: %w", applied, err)
		}
	}
	fmt.Fprintf(w, "smoke: mesh served and matched a full rebuild after every batch\n")

	// A batch that fails mid-way must apply its valid prefix and leave
	// the session fully servable: [valid move, move of a never-allocated
	// node] answers 400 with applied=1, and a GET afterwards must serve
	// exactly the prefix-applied state.
	moveID := pickActive(rng, active)
	newPos := pos[moveID].Add(geom.V(network.Radius/4, 0, 0))
	partial, err := json.Marshal(map[string]any{"deltas": []map[string]any{
		{"op": "move", "node": moveID, "pos": vec(newPos)},
		{"op": "move", "node": len(pos) + 1000, "pos": vec(newPos)},
	}})
	if err != nil {
		return err
	}
	res, err := http.Post(base+"/v1/sessions/"+created.Session+"/deltas", "application/json", bytes.NewReader(partial))
	if err != nil {
		return err
	}
	var failed struct {
		Error   string `json:"error"`
		Applied int    `json:"applied"`
	}
	err = json.NewDecoder(res.Body).Decode(&failed)
	res.Body.Close()
	if err != nil {
		return fmt.Errorf("partial batch: decode error body: %w", err)
	}
	if res.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("partial batch: status %s, want 400", res.Status)
	}
	if failed.Applied != 1 || failed.Error == "" {
		return fmt.Errorf("partial batch: applied=%d error=%q, want the valid prefix (1) applied", failed.Applied, failed.Error)
	}
	pos[moveID] = newPos // mirror the applied prefix
	if err := diffAgainstFull(base, created.Session, pos, active, network.Radius, cfg); err != nil {
		return fmt.Errorf("GET after partial batch: %w", err)
	}
	fmt.Fprintln(w, "smoke: partial batch applied prefix, session still servable")

	// The metrics endpoint must be live while the session is: the global
	// view has request spans, the session view has its delta count.
	var metrics serve.MetricsResponse
	if err := getJSON(base+"/v1/metrics", &metrics); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if metrics.Global.Counters["serve/deltas_applied"] < int64(applied) {
		return fmt.Errorf("metrics: global deltas %d < %d applied", metrics.Global.Counters["serve/deltas_applied"], applied)
	}
	if len(metrics.Global.Latencies) == 0 {
		return fmt.Errorf("metrics: no global latency summaries")
	}
	if _, ok := metrics.Sessions[created.Session]; !ok {
		return fmt.Errorf("metrics: missing session %s view", created.Session)
	}

	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+created.Session, nil)
	if err != nil {
		return err
	}
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("delete session: status %s", res.Status)
	}

	if err := smokeCompat(w, base, body, network, opts); err != nil {
		return fmt.Errorf("compat: %w", err)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := latencies[len(latencies)/2]
	p99 := latencies[(len(latencies)*99)/100]
	fmt.Fprintf(w, "serve-smoke: OK (%d deltas, batch p50=%v p99=%v)\n", applied, p50, p99)
	return nil
}

// smokeCompat exercises a non-paper detector session: a session created
// with ?detector=sv-contour must serve that detector's boundary, diffed
// against a from-scratch recompute after a delta.
func smokeCompat(w io.Writer, base string, envBody []byte, network *netgen.Network, opts options) error {
	const detector = "sv-contour"
	var created serve.Summary
	if err := postJSON(base+"/v1/sessions?detector="+detector, envBody, http.StatusCreated, &created); err != nil {
		return fmt.Errorf("%s create: %w", detector, err)
	}
	if created.Detector != detector {
		return fmt.Errorf("session detector %q, want %q", created.Detector, detector)
	}

	pos := network.Positions()
	active := make([]bool, len(pos))
	for i := range active {
		active[i] = true
	}
	pos[0] = pos[0].Add(geom.V(network.Radius/3, 0, 0))
	body, err := json.Marshal(map[string]any{"deltas": []map[string]any{
		{"op": "move", "node": 0, "pos": vec(pos[0])},
	}})
	if err != nil {
		return err
	}
	if err := postJSON(base+"/v1/sessions/"+created.Session+"/deltas", body, http.StatusOK, nil); err != nil {
		return fmt.Errorf("%s delta: %w", detector, err)
	}
	cfg := opts.Common.DetectConfig()
	cfg.Detector = detector
	if err := diffAgainstFull(base, created.Session, pos, active, network.Radius, cfg); err != nil {
		return fmt.Errorf("%s session: %w", detector, err)
	}

	// sv-contour is topology-only: the mesh route must refuse with 501
	// and say why, not serve a meaningless surface.
	meshRes, err := http.Get(base + "/v1/sessions/" + created.Session + "/mesh")
	if err != nil {
		return err
	}
	meshBody, _ := io.ReadAll(io.LimitReader(meshRes.Body, 512))
	meshRes.Body.Close()
	if meshRes.StatusCode != http.StatusNotImplemented {
		return fmt.Errorf("%s mesh: status %s, want 501", detector, meshRes.Status)
	}
	if !strings.Contains(string(meshBody), "topology-only") {
		return fmt.Errorf("%s mesh: 501 body %q does not explain the capability gap", detector, meshBody)
	}

	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+created.Session, nil)
	if err != nil {
		return err
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	del.Body.Close()
	if del.StatusCode != http.StatusOK {
		return fmt.Errorf("delete %s session: status %s", detector, del.Status)
	}
	fmt.Fprintf(w, "smoke: %s session OK (mesh 501)\n", detector)
	return smokeFallbackMesh(w, base, envBody, network, opts)
}

// smokeFallbackMesh drives a session on sv-enclosure, a measurement-capable
// detector without incremental repair: its mesh is read before and after a
// delta batch, so the cached surfaces and their per-delta invalidation run
// over real HTTP for the full-recompute repair too.
func smokeFallbackMesh(w io.Writer, base string, envBody []byte, network *netgen.Network, opts options) error {
	const detector = "sv-enclosure"
	var created serve.Summary
	if err := postJSON(base+"/v1/sessions?detector="+detector, envBody, http.StatusCreated, &created); err != nil {
		return fmt.Errorf("%s create: %w", detector, err)
	}
	cfg := opts.Common.DetectConfig()
	cfg.Detector = detector
	pos := network.Positions()
	active := make([]bool, len(pos))
	for i := range active {
		active[i] = true
	}
	if err := diffMeshAgainstFull(base, created.Session, pos, active, network.Radius, cfg); err != nil {
		return fmt.Errorf("%s mesh: %w", detector, err)
	}
	pos[1] = pos[1].Add(geom.V(0, network.Radius/3, 0))
	active[2] = false
	body, err := json.Marshal(map[string]any{"deltas": []map[string]any{
		{"op": "move", "node": 1, "pos": vec(pos[1])},
		{"op": "leave", "node": 2},
	}})
	if err != nil {
		return err
	}
	if err := postJSON(base+"/v1/sessions/"+created.Session+"/deltas", body, http.StatusOK, nil); err != nil {
		return fmt.Errorf("%s delta: %w", detector, err)
	}
	if err := diffAgainstFull(base, created.Session, pos, active, network.Radius, cfg); err != nil {
		return fmt.Errorf("%s session: %w", detector, err)
	}
	if err := diffMeshAgainstFull(base, created.Session, pos, active, network.Radius, cfg); err != nil {
		return fmt.Errorf("%s mesh after deltas: %w", detector, err)
	}
	fmt.Fprintf(w, "smoke: %s session mesh matched a full rebuild before and after a delta batch\n", detector)
	return nil
}

// diffAgainstFull fetches the session detail and compares boundary and
// groups against a from-scratch detection of the mirrored active set.
func diffAgainstFull(base, id string, pos []geom.Vec3, active []bool, radius float64, cfg core.Config) error {
	var det serve.Detail
	res, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("get session: status %s", res.Status)
	}
	if err := json.NewDecoder(res.Body).Decode(&det); err != nil {
		return err
	}

	var nodes []netgen.Node
	var stable []int
	for i, a := range active {
		if a {
			stable = append(stable, i)
			nodes = append(nodes, netgen.Node{Pos: pos[i]})
		}
	}
	network, err := netgen.Assemble(nodes, radius)
	if err != nil {
		return err
	}
	full, err := core.Detect(network, nil, cfg)
	if err != nil {
		return err
	}
	var wantBoundary []int
	for k, b := range full.Boundary {
		if b {
			wantBoundary = append(wantBoundary, stable[k])
		}
	}
	if !equalInts(det.Boundary, wantBoundary) {
		return fmt.Errorf("boundary diverged: served %d nodes, recompute %d", len(det.Boundary), len(wantBoundary))
	}
	if len(det.Groups) != len(full.Groups) {
		return fmt.Errorf("group count diverged: served %d, recompute %d", len(det.Groups), len(full.Groups))
	}
	for g := range full.Groups {
		want := make([]int, len(full.Groups[g]))
		for k, m := range full.Groups[g] {
			want[k] = stable[m]
		}
		if !equalInts(det.Groups[g], want) {
			return fmt.Errorf("group %d diverged", g)
		}
	}
	return nil
}

// diffMeshAgainstFull fetches the session's reconstructed surfaces and
// compares them against from-scratch mesh builds over the mirrored active
// set: landmark IDs and smoothed positions (exact — float64 survives a
// JSON round-trip), edges, faces, flip counts and quality diagnostics,
// all under the stable-ID renaming.
func diffMeshAgainstFull(base, id string, pos []geom.Vec3, active []bool, radius float64, cfg core.Config) error {
	var mr struct {
		Surfaces []struct {
			Group     int `json:"group"`
			GroupSize int `json:"group_size"`
			Landmarks []struct {
				ID int     `json:"id"`
				X  float64 `json:"x"`
				Y  float64 `json:"y"`
				Z  float64 `json:"z"`
			} `json:"landmarks"`
			Edges  [][2]int `json:"edges"`
			Faces  [][3]int `json:"faces"`
			Flips  int      `json:"flips"`
			Euler  int      `json:"euler"`
			Closed bool     `json:"closed_2manifold"`
		} `json:"surfaces"`
	}
	if err := getJSON(base+"/v1/sessions/"+id+"/mesh", &mr); err != nil {
		return err
	}

	var nodes []netgen.Node
	var stable []int
	for i, a := range active {
		if a {
			stable = append(stable, i)
			nodes = append(nodes, netgen.Node{Pos: pos[i]})
		}
	}
	network, err := netgen.Assemble(nodes, radius)
	if err != nil {
		return err
	}
	full, err := core.Detect(network, nil, cfg)
	if err != nil {
		return err
	}
	want, err := mesh.BuildAll(network.G, full.Groups, mesh.Config{})
	if err != nil {
		return err
	}
	if len(mr.Surfaces) != len(want) {
		return fmt.Errorf("served %d surfaces, full build %d", len(mr.Surfaces), len(want))
	}
	for i, ws := range mr.Surfaces {
		ref := want[i]
		if ws.Group != i || ws.GroupSize != len(ref.Group) {
			return fmt.Errorf("surface %d: group %d size %d, want size %d", i, ws.Group, ws.GroupSize, len(ref.Group))
		}
		refined := mesh.RefinedPositions(ref, func(u int) geom.Vec3 { return nodes[u].Pos }, 0.7)
		if len(ws.Landmarks) != len(ref.Landmarks.IDs) {
			return fmt.Errorf("surface %d: %d landmarks, want %d", i, len(ws.Landmarks), len(ref.Landmarks.IDs))
		}
		for k, lm := range ref.Landmarks.IDs {
			wl := ws.Landmarks[k]
			if wl.ID != stable[lm] {
				return fmt.Errorf("surface %d landmark %d: id %d, want %d", i, k, wl.ID, stable[lm])
			}
			if p := refined[lm]; wl.X != p.X || wl.Y != p.Y || wl.Z != p.Z {
				return fmt.Errorf("surface %d landmark %d: position diverged", i, k)
			}
		}
		if len(ws.Edges) != len(ref.Edges) || len(ws.Faces) != len(ref.Faces) {
			return fmt.Errorf("surface %d: %d edges %d faces, want %d/%d",
				i, len(ws.Edges), len(ws.Faces), len(ref.Edges), len(ref.Faces))
		}
		for k, e := range ref.Edges {
			if ws.Edges[k] != [2]int{stable[e[0]], stable[e[1]]} {
				return fmt.Errorf("surface %d edge %d diverged", i, k)
			}
		}
		for k, f := range ref.Faces {
			if ws.Faces[k] != [3]int{stable[f[0]], stable[f[1]], stable[f[2]]} {
				return fmt.Errorf("surface %d face %d diverged", i, k)
			}
		}
		if ws.Flips != ref.Flips || ws.Euler != ref.Quality.Euler || ws.Closed != ref.Quality.Closed2Manifold {
			return fmt.Errorf("surface %d: flips/euler/closed %d/%d/%v, want %d/%d/%v",
				i, ws.Flips, ws.Euler, ws.Closed, ref.Flips, ref.Quality.Euler, ref.Quality.Closed2Manifold)
		}
	}
	return nil
}

func getJSON(url string, out any) error {
	res, err := http.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", res.Status)
	}
	return json.NewDecoder(res.Body).Decode(out)
}

func postJSON(url string, body []byte, wantStatus int, out any) error {
	res, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != wantStatus {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return fmt.Errorf("status %s: %s", res.Status, msg)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(res.Body).Decode(out)
}

func vec(p geom.Vec3) map[string]float64 {
	return map[string]float64{"x": p.X, "y": p.Y, "z": p.Z}
}

func boundsOf(pos []geom.Vec3) [2]geom.Vec3 {
	lo, hi := pos[0], pos[0]
	for _, p := range pos {
		lo = geom.V(min(lo.X, p.X), min(lo.Y, p.Y), min(lo.Z, p.Z))
		hi = geom.V(max(hi.X, p.X), max(hi.Y, p.Y), max(hi.Z, p.Z))
	}
	return [2]geom.Vec3{lo, hi}
}

func pickActive(rng *rand.Rand, active []bool) int {
	for {
		id := rng.Intn(len(active))
		if active[id] {
			return id
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
