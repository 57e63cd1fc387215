package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/serve"
)

// server is one in-process boundaryd listening on a loopback TCP port,
// holding one session over the workload's network.
type server struct {
	base, session string
	rec           *recorder // nil unless traced
	httpSrv       *http.Server
	done          chan struct{} // closed when Serve has returned
}

// startServer starts boundaryd's handler behind a real listener and
// creates a session by POSTing the network in the envelope netgen writes.
// A non-nil recorder observes the server and tags spans with request IDs.
func startServer(client *http.Client, network *netgen.Network, rec *recorder) (*server, error) {
	opts := serve.Options{}
	var handler http.Handler
	if rec != nil {
		opts.Obs = rec
		handler = rec.withRequest(serve.New(opts).Handler())
	} else {
		handler = serve.New(opts).Handler()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + ln.Addr().String(), rec: rec, httpSrv: &http.Server{Handler: handler}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.httpSrv.Serve(ln)
	}()

	raw, err := cli.MarshalRaw(func(buf *bytes.Buffer) error { return export.WriteNetworkJSON(buf, network) })
	if err != nil {
		s.stop()
		return nil, err
	}
	body, err := json.Marshal(cli.Envelope{Tool: "netgen", Data: raw})
	if err != nil {
		s.stop()
		return nil, err
	}
	res, err := client.Post(s.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("create session: %w", err)
	}
	defer res.Body.Close()
	var sum serve.Summary
	if res.StatusCode != http.StatusCreated {
		s.stop()
		return nil, fmt.Errorf("create session: status %s", res.Status)
	}
	if err := json.NewDecoder(res.Body).Decode(&sum); err != nil {
		s.stop()
		return nil, fmt.Errorf("create session: %w", err)
	}
	s.session = sum.Session
	return s, nil
}

// stop shuts the server down and waits for its Serve goroutine to return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.httpSrv.Shutdown(ctx)
	<-s.done
}

// request is one scheduled operation: a single-delta batch or a mesh read.
type request struct {
	mesh  bool
	delta core.Delta
	body  []byte
	// origin is the original node whose ground-truth label a join
	// inherits (the node that left from this position); -1 otherwise.
	origin int
}

// traffic parameterizes a serve phase's delta stream.
type traffic struct {
	fixedRPS float64   // the one fixed offered rate for the latency metrics
	ladder   []float64 // offered rates stepped through for max_rps
	// jitter bounds each move's per-axis offset from the node's original
	// position, in radio ranges.
	jitter float64
	// pairShare is the share of deltas that start a leave-then-rejoin pair.
	pairShare float64
	// moverFilter, when set, restricts which original nodes move or leave.
	moverFilter func(net *netgen.Network, id int) bool
}

// meshEvery makes one request in ten a mesh read.
const meshEvery = 10

// returnGap is how many requests after a node moves away, or leaves, it
// moves back home, or rejoins at its old position. With at most a few
// requests in flight, the first of the pair has long completed.
const returnGap = 25

// makeStream derives n requests from the seed. Every delta is half of a
// pair that restores the network: a move within jitter of the node's
// original position followed by a move back home, or a leave followed by a
// rejoin at the old position (with a fresh ID). The network therefore stays
// close to the generated one however long a run lasts. Movers cycle
// through a shuffled set and the two halves of a pair are returnGap
// requests apart, so a node is never named while an earlier request about
// it may be in flight; leavers come from a disjoint set and leave once. No
// request names a node a join created, so the stream never depends on the
// IDs the server assigns.
func makeStream(seed int64, network *netgen.Network, tr traffic, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	var eligible []int
	for _, id := range rng.Perm(network.Len()) {
		if tr.moverFilter == nil || tr.moverFilter(network, id) {
			eligible = append(eligible, id)
		}
	}
	// At most a quarter of the eligible nodes ever leave; once they have,
	// the stream carries move pairs only.
	nLeavers := min(int(float64(n)*tr.pairShare), len(eligible)/4)
	leavers, movers := eligible[:nLeavers], eligible[nLeavers:]
	returns := map[int]request{} // request index → the pair's second half
	schedule := func(k int, r request) {
		due := k + returnGap
		for _, taken := returns[due]; taken || due%meshEvery == meshEvery-1; _, taken = returns[due] {
			due++
		}
		returns[due] = r
	}
	out := make([]request, 0, n)
	for k := 0; k < n; k++ {
		if k%meshEvery == meshEvery-1 {
			out = append(out, request{mesh: true, origin: -1})
			continue
		}
		r, ok := returns[k]
		switch {
		case ok:
		case len(leavers) > 0 && rng.Float64() < tr.pairShare:
			id := leavers[0]
			leavers = leavers[1:]
			r = request{delta: core.Delta{Op: core.DeltaLeave, Node: id}, origin: -1}
			schedule(k, request{delta: core.Delta{Op: core.DeltaJoin, Pos: network.Nodes[id].Pos}, origin: id})
		default:
			id := movers[0]
			movers = append(movers[1:], id)
			home := network.Nodes[id].Pos
			j := tr.jitter * network.Radius
			off := geom.V((rng.Float64()*2-1)*j, (rng.Float64()*2-1)*j, (rng.Float64()*2-1)*j)
			r = request{delta: core.Delta{Op: core.DeltaMove, Node: id, Pos: home.Add(off)}, origin: -1}
			schedule(k, request{delta: core.Delta{Op: core.DeltaMove, Node: id, Pos: home}, origin: -1})
		}
		r.body = deltaBody(r.delta)
		out = append(out, r)
	}
	return out
}

// deltaBody renders one delta as a single-delta batch on the wire.
func deltaBody(d core.Delta) []byte {
	switch d.Op {
	case core.DeltaLeave:
		return []byte(fmt.Sprintf(`{"deltas":[{"op":"leave","node":%d}]}`, d.Node))
	case core.DeltaJoin:
		return []byte(fmt.Sprintf(`{"deltas":[{"op":"join","pos":{"x":%s,"y":%s,"z":%s}}]}`,
			ftoa(d.Pos.X), ftoa(d.Pos.Y), ftoa(d.Pos.Z)))
	default:
		return []byte(fmt.Sprintf(`{"deltas":[{"op":"move","node":%d,"pos":{"x":%s,"y":%s,"z":%s}}]}`,
			d.Node, ftoa(d.Pos.X), ftoa(d.Pos.Y), ftoa(d.Pos.Z)))
	}
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// outcome is one request's result.
type outcome struct {
	idx     int           // index into the stream
	latency time.Duration // from the intended send time to the end of the response
	lag     time.Duration // how late the generator released the request
	ok      bool
	joined  int // stable ID a join was assigned
}

// openLoop sends stream[from:from+n] on a fixed schedule — request k is due
// at start + k/rate regardless of earlier replies — over at most conns
// connections. Latency counts from the due time, so time a request spends
// waiting for a free connection behind a slow reply is charged to it.
func openLoop(client *http.Client, srv *server, stream []request, from, n int, rate float64, conns int) []outcome {
	out := make([]outcome, n)
	jobs := make(chan int, n) // holds the whole schedule: the dispatcher never blocks
	due := make([]time.Time, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				o := send(client, srv, stream, from+k)
				o.latency = time.Since(due[k])
				out[k].latency, out[k].ok, out[k].joined, out[k].idx = o.latency, o.ok, o.joined, from+k
			}
		}()
	}
	start := time.Now()
	for k := 0; k < n; k++ {
		due[k] = start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due[k]); d > 0 {
			time.Sleep(d)
		}
		out[k].lag = time.Since(due[k])
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return out
}

// send performs one request; a transport error or a non-200 reply is a
// failure.
func send(client *http.Client, srv *server, stream []request, k int) outcome {
	r := stream[k]
	var req *http.Request
	var err error
	if r.mesh {
		req, err = http.NewRequest(http.MethodGet, srv.base+"/v1/sessions/"+srv.session+"/mesh", nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, srv.base+"/v1/sessions/"+srv.session+"/deltas", bytes.NewReader(r.body))
	}
	if err != nil {
		return outcome{joined: -1}
	}
	req.Header.Set("X-Request-Id", strconv.Itoa(k))
	res, err := client.Do(req)
	if err != nil {
		return outcome{joined: -1}
	}
	defer res.Body.Close()
	o := outcome{ok: res.StatusCode == http.StatusOK, joined: -1}
	if r.delta.Op == core.DeltaJoin && !r.mesh {
		var resp struct {
			Joined []int `json:"joined"`
		}
		if err := json.NewDecoder(res.Body).Decode(&resp); err != nil || len(resp.Joined) != 1 {
			o.ok = false
		} else {
			o.joined = resp.Joined[0]
		}
	}
	io.Copy(io.Discard, res.Body)
	return o
}

// latencies splits outcomes into delta and mesh latencies in milliseconds;
// failed requests count as infinitely slow, so they miss every limit.
func latencies(outs []outcome, stream []request) (deltas, meshes []float64, failed int) {
	for _, o := range outs {
		ms := float64(o.latency) / 1e6
		if !o.ok {
			failed++
			ms = inf
		}
		if stream[o.idx].mesh {
			meshes = append(meshes, ms)
		} else {
			deltas = append(deltas, ms)
		}
	}
	return deltas, meshes, failed
}

func countFailed(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if !o.ok {
			n++
		}
	}
	return n
}

// mirror tracks the session's stable-ID state from the requests the server
// acknowledged, for the end-of-run comparison.
type mirror struct {
	pos    []geom.Vec3
	active []bool
	truth  []bool // ground-truth boundary label per stable ID
}

func newMirror(network *netgen.Network) *mirror {
	m := &mirror{pos: network.Positions(), active: make([]bool, network.Len()), truth: network.TrueBoundary()}
	for i := range m.active {
		m.active[i] = true
	}
	return m
}

// apply folds acknowledged outcomes in, in schedule order. Two requests
// about one node are returnGap requests apart and never in flight together,
// so the order in which the server saw them is the schedule order.
func (m *mirror) apply(network *netgen.Network, stream []request, outs []outcome) {
	for _, o := range outs {
		r := stream[o.idx]
		if r.mesh || !o.ok {
			continue
		}
		switch r.delta.Op {
		case core.DeltaMove:
			m.pos[r.delta.Node] = r.delta.Pos
		case core.DeltaLeave:
			m.active[r.delta.Node] = false
		case core.DeltaJoin:
			for len(m.pos) <= o.joined {
				m.pos = append(m.pos, geom.Vec3{})
				m.active = append(m.active, false)
				m.truth = append(m.truth, false)
			}
			m.pos[o.joined] = r.delta.Pos
			m.active[o.joined] = true
			m.truth[o.joined] = network.Nodes[r.origin].OnSurface
		}
	}
}

// compact assembles the active nodes, in stable-ID order, into a fresh
// network carrying their ground-truth labels; stable maps its node indices
// back to stable IDs.
func (m *mirror) compact(radius float64) (*netgen.Network, []int, error) {
	var nodes []netgen.Node
	var stable []int
	for i, a := range m.active {
		if a {
			stable = append(stable, i)
			nodes = append(nodes, netgen.Node{Pos: m.pos[i], OnSurface: m.truth[i]})
		}
	}
	network, err := netgen.Assemble(nodes, radius)
	return network, stable, err
}

const inf = 1e300

// wireMesh is the GET /v1/sessions/{id}/mesh body, as far as the check
// reads it.
type wireMesh struct {
	Surfaces []struct {
		Group     int `json:"group"`
		GroupSize int `json:"group_size"`
		Landmarks []struct {
			ID      int `json:"id"`
			X, Y, Z float64
		} `json:"landmarks"`
		Edges [][2]int `json:"edges"`
		Faces [][3]int `json:"faces"`
		Flips int      `json:"flips"`
	} `json:"surfaces"`
}

func getJSON(client *http.Client, url string, out any) error {
	res, err := client.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %s", url, res.Status)
	}
	return json.NewDecoder(res.Body).Decode(out)
}

// fetchServed reads the session's detail and mesh.
func fetchServed(client *http.Client, srv *server) (serve.Detail, wireMesh, error) {
	var det serve.Detail
	var wm wireMesh
	if err := getJSON(client, srv.base+"/v1/sessions/"+srv.session, &det); err != nil {
		return det, wm, err
	}
	err := getJSON(client, srv.base+"/v1/sessions/"+srv.session+"/mesh", &wm)
	return det, wm, err
}

// diffServed compares the served detail and mesh against a from-scratch
// pipeline run over the compacted final network, under the compact →
// stable renaming: boundary, groups, and per surface the landmark IDs and
// smoothed positions, edges, faces and flip count.
func diffServed(det serve.Detail, wm wireMesh, ref pipelineOut, compact *netgen.Network, stable []int) error {
	var want []int
	for k, b := range ref.res.Boundary {
		if b {
			want = append(want, stable[k])
		}
	}
	if err := diffInts("served boundary", det.Boundary, want); err != nil {
		return err
	}
	if len(det.Groups) != len(ref.res.Groups) {
		return fmt.Errorf("served %d groups, recompute %d", len(det.Groups), len(ref.res.Groups))
	}
	for g, members := range ref.res.Groups {
		want := make([]int, len(members))
		for k, m := range members {
			want[k] = stable[m]
		}
		if err := diffInts(fmt.Sprintf("served group %d", g), det.Groups[g], want); err != nil {
			return err
		}
	}
	if len(wm.Surfaces) != len(ref.surfs) {
		return fmt.Errorf("served %d surfaces, recompute %d", len(wm.Surfaces), len(ref.surfs))
	}
	for i, ws := range wm.Surfaces {
		rs := ref.surfs[i]
		if ws.Group != i || ws.GroupSize != len(rs.Group) || ws.Flips != rs.Flips {
			return fmt.Errorf("surface %d: group/size/flips %d/%d/%d, want %d/%d/%d",
				i, ws.Group, ws.GroupSize, ws.Flips, i, len(rs.Group), rs.Flips)
		}
		if len(ws.Landmarks) != len(rs.Landmarks.IDs) || len(ws.Edges) != len(rs.Edges) || len(ws.Faces) != len(rs.Faces) {
			return fmt.Errorf("surface %d: landmarks/edges/faces %d/%d/%d, want %d/%d/%d", i,
				len(ws.Landmarks), len(ws.Edges), len(ws.Faces), len(rs.Landmarks.IDs), len(rs.Edges), len(rs.Faces))
		}
		refined := mesh.RefinedPositions(rs, func(u int) geom.Vec3 { return compact.Nodes[u].Pos }, 0.7)
		for k, lm := range rs.Landmarks.IDs {
			wl := ws.Landmarks[k]
			if p := refined[lm]; wl.ID != stable[lm] || wl.X != p.X || wl.Y != p.Y || wl.Z != p.Z {
				return fmt.Errorf("surface %d landmark %d: served %d at (%g,%g,%g), want %d at %v",
					i, k, wl.ID, wl.X, wl.Y, wl.Z, stable[lm], p)
			}
		}
		for k, e := range rs.Edges {
			if ws.Edges[k] != [2]int{stable[e[0]], stable[e[1]]} {
				return fmt.Errorf("surface %d edge %d diverged", i, k)
			}
		}
		for k, f := range rs.Faces {
			if ws.Faces[k] != [3]int{stable[f[0]], stable[f[1]], stable[f[2]]} {
				return fmt.Errorf("surface %d face %d diverged", i, k)
			}
		}
	}
	return nil
}

// replayResult is a direct replay's per-operation costs, in milliseconds.
type replayResult struct {
	apply, surfaces []float64
	stats           mesh.IncrementalStats
}

// replay applies the stream's requests in schedule order straight to a
// core.Incremental and a mesh.Incremental — the engines a session wraps —
// without HTTP. Each delta is ApplyContext plus Invalidate, each mesh read
// one Surfaces call.
func replay(ctx context.Context, o obs.Observer, network *netgen.Network, stream []request) (replayResult, error) {
	var rr replayResult
	inc, err := core.NewIncrementalContext(ctx, nil, network, core.Config{})
	if err != nil {
		return rr, err
	}
	eng := mesh.NewIncremental(mesh.Config{})
	var dst []*mesh.Surface
	for _, r := range stream {
		t0 := time.Now()
		if r.mesh {
			if dst, err = eng.Surfaces(ctx, o, inc, inc.GroupsView(), dst[:0]); err != nil {
				return rr, err
			}
			rr.surfaces = append(rr.surfaces, float64(time.Since(t0))/1e6)
			continue
		}
		if _, err := inc.ApplyContext(ctx, o, r.delta); err != nil {
			return rr, fmt.Errorf("replay %s: %w", r.delta.Op, err)
		}
		node, peers := inc.LastTopology()
		eng.Invalidate(o, node, peers)
		rr.apply = append(rr.apply, float64(time.Since(t0))/1e6)
	}
	rr.stats = eng.Stats()
	return rr, nil
}
