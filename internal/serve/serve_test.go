package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/shapes"
)

// testNetwork builds a small seeded ball deployment once per binary.
var (
	testNetOnce sync.Once
	testNetVal  *netgen.Network
	testNetErr  error
)

func testNetwork(t *testing.T) *netgen.Network {
	t.Helper()
	testNetOnce.Do(func() {
		testNetVal, testNetErr = netgen.Generate(netgen.Config{
			Shape:           shapes.NewBall(geom.Zero, 4),
			SurfaceNodes:    90,
			InteriorNodes:   160,
			TargetAvgDegree: 15,
			Seed:            71,
		})
	})
	if testNetErr != nil {
		t.Fatal(testNetErr)
	}
	return testNetVal
}

// envelopeBody frames the network as netgen's -out envelope.
func envelopeBody(t *testing.T, net *netgen.Network) []byte {
	t.Helper()
	raw, err := cli.MarshalRaw(func(buf *bytes.Buffer) error {
		return export.WriteNetworkJSON(buf, net)
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(cli.Envelope{Tool: "netgen", Data: raw})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// legacyBody is the raw network JSON without the envelope framing.
func legacyBody(t *testing.T, net *netgen.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := export.WriteNetworkJSON(&buf, net); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func doJSON(t *testing.T, method, url string, body []byte, wantStatus int, out any) string {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(res.Body)
	if res.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %s, want %d; body %s", method, url, res.Status, wantStatus, buf.String())
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode response: %v (%s)", method, url, err, buf.String())
		}
	}
	return buf.String()
}

// diffServed compares the session detail against a from-scratch detection
// of the mirrored active node set (stable-ID renaming applied).
func diffServed(t *testing.T, base, id string, pos []geom.Vec3, active []bool, radius float64, cfg core.Config) {
	t.Helper()
	var det Detail
	doJSON(t, http.MethodGet, base+"/v1/sessions/"+id, nil, http.StatusOK, &det)

	var nodes []netgen.Node
	var stable []int
	for i, a := range active {
		if a {
			stable = append(stable, i)
			nodes = append(nodes, netgen.Node{Pos: pos[i]})
		}
	}
	net, err := netgen.Assemble(nodes, radius)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Detect(net, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantBoundary []int
	for k, b := range full.Boundary {
		if b {
			wantBoundary = append(wantBoundary, stable[k])
		}
	}
	if fmt.Sprint(det.Boundary) != fmt.Sprint(wantBoundary) {
		t.Fatalf("boundary diverged: served %v, full %v", det.Boundary, wantBoundary)
	}
	if len(det.Groups) != len(full.Groups) {
		t.Fatalf("group count diverged: served %d, full %d", len(det.Groups), len(full.Groups))
	}
	for g := range full.Groups {
		want := make([]int, len(full.Groups[g]))
		for k, m := range full.Groups[g] {
			want[k] = stable[m]
		}
		if fmt.Sprint(det.Groups[g]) != fmt.Sprint(want) {
			t.Fatalf("group %d diverged: served %v, full %v", g, det.Groups[g], want)
		}
	}
	if det.BoundaryCount != len(det.Boundary) || det.GroupCount != len(det.Groups) {
		t.Fatalf("summary counts inconsistent with detail: %+v", det.Summary)
	}
}

// diffMeshServed compares the served mesh against from-scratch surfaces
// built over the mirrored active set: landmark IDs, smoothed positions
// (exact — float64 survives a JSON round-trip), edges, faces, flip counts
// and quality diagnostics, all under the stable-ID renaming.
func diffMeshServed(t *testing.T, base, id string, pos []geom.Vec3, active []bool, radius float64, cfg core.Config) {
	t.Helper()
	var mr meshResponse
	doJSON(t, http.MethodGet, base+"/v1/sessions/"+id+"/mesh", nil, http.StatusOK, &mr)

	var nodes []netgen.Node
	var stable []int
	for i, a := range active {
		if a {
			stable = append(stable, i)
			nodes = append(nodes, netgen.Node{Pos: pos[i]})
		}
	}
	net, err := netgen.Assemble(nodes, radius)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Detect(net, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mesh.BuildAll(net.G, full.Groups, mesh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Surfaces) != len(want) {
		t.Fatalf("served %d surfaces, full build %d", len(mr.Surfaces), len(want))
	}
	for i, ws := range mr.Surfaces {
		ref := want[i]
		if ws.Group != i || ws.GroupSize != len(ref.Group) {
			t.Fatalf("surface %d: group %d size %d, want %d size %d", i, ws.Group, ws.GroupSize, i, len(ref.Group))
		}
		refined := mesh.RefinedPositions(ref, func(u int) geom.Vec3 { return nodes[u].Pos }, 0.7)
		if len(ws.Landmarks) != len(ref.Landmarks.IDs) {
			t.Fatalf("surface %d: %d landmarks, want %d", i, len(ws.Landmarks), len(ref.Landmarks.IDs))
		}
		for k, lm := range ref.Landmarks.IDs {
			wl := ws.Landmarks[k]
			if wl.ID != stable[lm] {
				t.Fatalf("surface %d landmark %d: id %d, want %d", i, k, wl.ID, stable[lm])
			}
			if p := refined[lm]; wl.X != p.X || wl.Y != p.Y || wl.Z != p.Z {
				t.Fatalf("surface %d landmark %d: pos (%v,%v,%v), want %v", i, k, wl.X, wl.Y, wl.Z, p)
			}
		}
		if len(ws.Edges) != len(ref.Edges) || len(ws.Faces) != len(ref.Faces) {
			t.Fatalf("surface %d: %d edges %d faces, want %d/%d", i, len(ws.Edges), len(ws.Faces), len(ref.Edges), len(ref.Faces))
		}
		for k, e := range ref.Edges {
			if ws.Edges[k] != (mesh.Edge{stable[e[0]], stable[e[1]]}) {
				t.Fatalf("surface %d edge %d: %v, want %v", i, k, ws.Edges[k], mesh.Edge{stable[e[0]], stable[e[1]]})
			}
		}
		for k, f := range ref.Faces {
			if ws.Faces[k] != (mesh.Face{stable[f[0]], stable[f[1]], stable[f[2]]}) {
				t.Fatalf("surface %d face %d: %v, want mapped %v", i, k, ws.Faces[k], f)
			}
		}
		if ws.Flips != ref.Flips || ws.Euler != ref.Quality.Euler || ws.Closed2Manifold != ref.Quality.Closed2Manifold {
			t.Fatalf("surface %d: flips/euler/closed %d/%d/%v, want %d/%d/%v",
				i, ws.Flips, ws.Euler, ws.Closed2Manifold, ref.Flips, ref.Quality.Euler, ref.Quality.Closed2Manifold)
		}
	}
}

// TestServeMeshEndpoint drives the incremental mesh service mid
// delta-stream: every served mesh must equal a from-scratch surface build
// over the current active set, whether it came from the cache or a
// dirty-region repair, and the cache telemetry must reach /v1/metrics.
func TestServeMeshEndpoint(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	var sum Summary
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", envelopeBody(t, net), http.StatusCreated, &sum)
	pos := net.Positions()
	active := make([]bool, len(pos))
	for i := range active {
		active[i] = true
	}
	cfg := core.Config{}
	diffMeshServed(t, ts.URL, sum.Session, pos, active, net.Radius, cfg)

	rng := rand.New(rand.NewSource(23))
	for batch := 0; batch < 3; batch++ {
		var wire []map[string]any
		for k := 0; k < 3; k++ {
			switch rng.Intn(3) {
			case 0:
				p := geom.V(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*8-4)
				pos = append(pos, p)
				active = append(active, true)
				wire = append(wire, map[string]any{"op": "join", "pos": map[string]float64{"x": p.X, "y": p.Y, "z": p.Z}})
			case 1:
				id := rng.Intn(len(active))
				for !active[id] {
					id = rng.Intn(len(active))
				}
				p := pos[id].Add(geom.V(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5))
				pos[id] = p
				wire = append(wire, map[string]any{"op": "move", "node": id, "pos": map[string]float64{"x": p.X, "y": p.Y, "z": p.Z}})
			default:
				id := rng.Intn(len(active))
				for !active[id] {
					id = rng.Intn(len(active))
				}
				active[id] = false
				wire = append(wire, map[string]any{"op": "leave", "node": id})
			}
		}
		body, _ := json.Marshal(map[string]any{"deltas": wire})
		doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sum.Session+"/deltas", body, http.StatusOK, nil)
		diffMeshServed(t, ts.URL, sum.Session, pos, active, net.Radius, cfg)
	}

	// The engine's repair telemetry reached the metrics tiers.
	var mets MetricsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, http.StatusOK, &mets)
	if got := mets.Global.Counters["mesh_incremental/mesh_repairs"]; got == 0 {
		t.Errorf("global mesh_repairs counter missing: %v", mets.Global.Counters)
	}
	sessView := mets.Sessions[sum.Session]
	if got := sessView.Counters["mesh_incremental/dirty_patch_nodes"]; got == 0 {
		t.Errorf("session dirty_patch_nodes counter missing: %v", sessView.Counters)
	}
	if _, ok := sessView.Latencies[obs.StageMeshInc.String()]; !ok {
		t.Errorf("session latencies missing %s: %v", obs.StageMeshInc, sessView.Latencies)
	}

	// Unknown session: 404.
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/nope/mesh", nil, http.StatusNotFound, nil)
}

// TestServeMeshFallbackAndCapability: a measurement-capable detector
// without incremental support serves meshes through the full-recompute
// path; a topology-only detector answers 501.
func TestServeMeshFallbackAndCapability(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	var sv Summary
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions?detector=sv-enclosure", envelopeBody(t, net), http.StatusCreated, &sv)
	pos := net.Positions()
	active := make([]bool, len(pos))
	for i := range active {
		active[i] = true
	}
	cfg := core.Config{Detector: "sv-enclosure"}
	diffMeshServed(t, ts.URL, sv.Session, pos, active, net.Radius, cfg)
	body, _ := json.Marshal(map[string]any{"deltas": []map[string]any{{"op": "leave", "node": 7}}})
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sv.Session+"/deltas", body, http.StatusOK, nil)
	active[7] = false
	diffMeshServed(t, ts.URL, sv.Session, pos, active, net.Radius, cfg)

	// A move that changes an edge inside a group but keeps every member
	// list must still evict that group's cached surface.
	repairs := func() int64 {
		var m MetricsResponse
		doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, http.StatusOK, &m)
		return m.Sessions[sv.Session].Counters["mesh_incremental/mesh_repairs"]
	}
	before := repairs()
	u, p := edgeMove(t, pos, active, net.Radius, cfg)
	body, _ = json.Marshal(map[string]any{"deltas": []map[string]any{{"op": "move", "node": u, "pos": map[string]float64{"x": p.X, "y": p.Y, "z": p.Z}}}})
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sv.Session+"/deltas", body, http.StatusOK, nil)
	pos[u] = p
	diffMeshServed(t, ts.URL, sv.Session, pos, active, net.Radius, cfg)
	if after := repairs(); after <= before {
		t.Errorf("intra-group edge change served from cache: mesh_repairs %d -> %d", before, after)
	}

	var contour Summary
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions?detector=sv-contour", envelopeBody(t, net), http.StatusCreated, &contour)
	resp := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+contour.Session+"/mesh", nil, http.StatusNotImplemented, nil)
	if !strings.Contains(resp, "topology-only") {
		t.Errorf("501 body %q does not explain the capability gap", resp)
	}
}

// edgeMove finds a move of a boundary-group member u onto a group member
// v just out of its range, such that every group keeps its member list:
// the delta then changes an intra-group edge and nothing a cache key sees.
func edgeMove(t *testing.T, pos []geom.Vec3, active []bool, radius float64, cfg core.Config) (int, geom.Vec3) {
	t.Helper()
	groups := func(pos []geom.Vec3) [][]int {
		var nodes []netgen.Node
		var stable []int
		for i, a := range active {
			if a {
				stable = append(stable, i)
				nodes = append(nodes, netgen.Node{Pos: pos[i]})
			}
		}
		net, err := netgen.Assemble(nodes, radius)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Detect(net, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Groups {
			for k, m := range g {
				g[k] = stable[m]
			}
		}
		return res.Groups
	}
	want := groups(pos)
	for _, g := range want {
		for _, u := range g {
			for _, v := range g {
				d := pos[u].Dist(pos[v])
				if d <= radius || d > 1.2*radius {
					continue
				}
				moved := append([]geom.Vec3(nil), pos...)
				moved[u] = pos[u].Add(pos[v].Sub(pos[u]).Scale((d - 0.95*radius) / d))
				if fmt.Sprint(groups(moved)) == fmt.Sprint(want) {
					return u, moved[u]
				}
			}
		}
	}
	t.Fatal("no move changes an intra-group edge while keeping every group")
	return 0, geom.Vec3{}
}

// TestServeSessionLifecycle drives the full API end to end: create from
// an envelope, stream delta batches of joins, moves, leaves and crashes,
// check each batch's joined IDs and diff the served result against a
// full recompute after every batch, list, delete.
func TestServeSessionLifecycle(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	var sum Summary
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", envelopeBody(t, net), http.StatusCreated, &sum)
	if sum.Session == "" || sum.Nodes != net.Len() || sum.Active != net.Len() {
		t.Fatalf("create summary wrong: %+v", sum)
	}

	pos := net.Positions()
	active := make([]bool, len(pos))
	for i := range active {
		active[i] = true
	}
	cfg := core.Config{}
	diffServed(t, ts.URL, sum.Session, pos, active, net.Radius, cfg)

	// The op mix covers every delta kind. A join takes the next stable
	// ID, so the mirror predicts each batch's joined IDs in order.
	rng := rand.New(rand.NewSource(9))
	applied := int64(0)
	for batch := 0; batch < 4; batch++ {
		var wire []map[string]any
		var joins []int
		for k := 0; k < 4; k++ {
			switch op := rng.Intn(4); op {
			case 0:
				p := geom.V(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*8-4)
				joins = append(joins, len(pos))
				pos = append(pos, p)
				active = append(active, true)
				wire = append(wire, map[string]any{"op": "join", "pos": map[string]float64{"x": p.X, "y": p.Y, "z": p.Z}})
			case 1:
				id := rng.Intn(len(active))
				for !active[id] {
					id = rng.Intn(len(active))
				}
				p := pos[id].Add(geom.V(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5))
				pos[id] = p
				wire = append(wire, map[string]any{"op": "move", "node": id, "pos": map[string]float64{"x": p.X, "y": p.Y, "z": p.Z}})
			default:
				id := rng.Intn(len(active))
				for !active[id] {
					id = rng.Intn(len(active))
				}
				active[id] = false
				kind := "leave"
				if op == 3 {
					kind = "crash"
				}
				wire = append(wire, map[string]any{"op": kind, "node": id})
			}
		}
		body, _ := json.Marshal(map[string]any{"deltas": wire})
		var resp deltasResponse
		doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sum.Session+"/deltas", body, http.StatusOK, &resp)
		applied += int64(len(wire))
		if resp.Applied != len(wire) || resp.Summary.DeltasApplied != applied {
			t.Fatalf("batch %d: applied %d/%d, total %d want %d", batch, resp.Applied, len(wire), resp.Summary.DeltasApplied, applied)
		}
		if !slices.Equal(resp.Joined, joins) {
			t.Fatalf("batch %d: joined IDs %v, mirror predicts %v", batch, resp.Joined, joins)
		}
		diffServed(t, ts.URL, sum.Session, pos, active, net.Radius, cfg)
	}

	var list struct {
		Sessions []Summary `json:"sessions"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].Session != sum.Session {
		t.Fatalf("list wrong: %+v", list)
	}

	doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+sum.Session, nil, http.StatusOK, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sum.Session, nil, http.StatusNotFound, nil)

	var health struct {
		OK       bool `json:"ok"`
		Sessions int  `json:"sessions"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK, &health)
	if !health.OK || health.Sessions != 0 {
		t.Fatalf("health wrong: %+v", health)
	}
}

// TestServeLegacyPayload: creation accepts the raw network JSON the
// pre-envelope exports used.
func TestServeLegacyPayload(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	var sum Summary
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", legacyBody(t, net), http.StatusCreated, &sum)
	if sum.Nodes != net.Len() {
		t.Fatalf("legacy create summary wrong: %+v", sum)
	}
}

// TestServeUnprefixedRoutesGone pins the retired pre-versioning spellings:
// every session route answers only under /v1, so an unprefixed request is a
// 404 even while a session with that ID exists.
func TestServeUnprefixedRoutesGone(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	var sum Summary
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", envelopeBody(t, net), http.StatusCreated, &sum)
	for _, rt := range []struct{ method, path string }{
		{http.MethodGet, "/sessions"},
		{http.MethodPost, "/sessions"},
		{http.MethodGet, "/sessions/" + sum.Session},
		{http.MethodPost, "/sessions/" + sum.Session + "/deltas"},
		{http.MethodDelete, "/sessions/" + sum.Session},
	} {
		doJSON(t, rt.method, ts.URL+rt.path, nil, http.StatusNotFound, nil)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sum.Session, nil, http.StatusOK, nil)
}

// TestServeCreateRejects covers the creation error seams, including the
// trailing-data envelope fix and the negative-parameter config fix — both
// surfaced as 400s at the API boundary instead of deep library behavior.
func TestServeCreateRejects(t *testing.T) {
	net := testNetwork(t)
	env := envelopeBody(t, net)
	wrongTool, _ := json.Marshal(cli.Envelope{Tool: "experiment", Data: json.RawMessage(`{}`)})
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		url  string
		body []byte
		want string
	}{
		{"concatenated envelopes", "/v1/sessions", append(append([]byte{}, env...), env...), "malformed envelope"},
		{"trailing garbage", "/v1/sessions", append(append([]byte{}, env...), []byte("garbage")...), "malformed envelope"},
		{"wrong tool", "/v1/sessions", wrongTool, "envelope from"},
		{"not a network", "/v1/sessions", []byte(`{"tool": "netgen", "data": {"radius": 0}}`), "network payload"},
		{"negative workers", "/v1/sessions?workers=-1", env, "Workers"},
		{"negative shards", "/v1/sessions?shards=-2", env, "Shards"},
		{"non-integer theta", "/v1/sessions?theta=hot", env, "theta"},
	} {
		body := doJSON(t, http.MethodPost, ts.URL+tc.url, tc.body, http.StatusBadRequest, nil)
		if !strings.Contains(body, tc.want) {
			t.Errorf("%s: response %q does not mention %q", tc.name, body, tc.want)
		}
	}
}

// TestServeDeltaRejects covers the delta error seams, once per registered
// detector: validation failures wrap the engine's typed errors, report the
// applied prefix and leave the session consistent, and a batch may remove
// every node.
func TestServeDeltaRejects(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	for _, name := range core.DetectorNames() {
		t.Run(name, func(t *testing.T) {
			var sum Summary
			doJSON(t, http.MethodPost, ts.URL+"/v1/sessions?detector="+name, envelopeBody(t, net), http.StatusCreated, &sum)
			deltasURL := ts.URL + "/v1/sessions/" + sum.Session + "/deltas"

			for _, tc := range []struct {
				name string
				body string
				want string
			}{
				{"empty batch", `{"deltas": []}`, "empty delta batch"},
				{"unknown field", `{"deltas": [], "flush": true}`, "flush"},
				{"unknown op", `{"deltas": [{"op": "explode", "node": 1}]}`, "unknown op"},
				{"join without pos", `{"deltas": [{"op": "join"}]}`, "needs a pos"},
				{"move without pos", `{"deltas": [{"op": "move", "node": 1}]}`, "needs a pos"},
				{"no such node", `{"deltas": [{"op": "leave", "node": 999999}]}`, core.ErrNoSuchNode.Error()},
				{"move no such node", `{"deltas": [{"op": "move", "node": 999999, "pos": {"x": 0, "y": 0, "z": 0}}]}`, core.ErrNoSuchNode.Error()},
				{"non-finite pos", `{"deltas": [{"op": "join", "pos": {"x": 1e999, "y": 0, "z": 0}}]}`, ""},
				{"not json", `deltas!`, "deltas body"},
			} {
				body := doJSON(t, http.MethodPost, deltasURL, []byte(tc.body), http.StatusBadRequest, nil)
				if tc.want != "" && !strings.Contains(body, tc.want) {
					t.Errorf("%s: response %q does not mention %q", tc.name, body, tc.want)
				}
			}

			// Unknown session: both delta and detail routes 404.
			doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/nope/deltas", []byte(`{"deltas": [{"op": "leave", "node": 1}]}`), http.StatusNotFound, nil)
			doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/nope", nil, http.StatusNotFound, nil)

			// Mid-batch failure: the valid prefix applies, the response reports
			// it, and the session still matches a full recompute.
			var fail errorResponse
			doJSON(t, http.MethodPost, deltasURL,
				[]byte(`{"deltas": [{"op": "leave", "node": 3}, {"op": "leave", "node": 3}, {"op": "leave", "node": 4}]}`),
				http.StatusBadRequest, &fail)
			if fail.Applied != 1 || !strings.Contains(fail.Error, "delta 1") {
				t.Fatalf("partial batch: %+v", fail)
			}
			pos := net.Positions()
			active := make([]bool, len(pos))
			for i := range active {
				active[i] = true
			}
			active[3] = false // only the prefix landed
			diffServed(t, ts.URL, sum.Session, pos, active, net.Radius, core.Config{Detector: name})
			var det Detail
			doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sum.Session, nil, http.StatusOK, &det)
			if det.DeltasApplied != 1 {
				t.Fatalf("deltas_applied = %d, want the applied prefix 1", det.DeltasApplied)
			}

			// One batch removes every remaining node.
			var leaves []map[string]any
			for i, a := range active {
				if a {
					leaves = append(leaves, map[string]any{"op": "leave", "node": i})
				}
			}
			body, _ := json.Marshal(map[string]any{"deltas": leaves})
			var resp deltasResponse
			doJSON(t, http.MethodPost, deltasURL, body, http.StatusOK, &resp)
			if resp.Applied != len(leaves) || resp.Summary.Active != 0 || resp.Summary.BoundaryCount != 0 || resp.Summary.GroupCount != 0 {
				t.Fatalf("leave-every-node batch: %+v", resp)
			}
		})
	}
}

// TestServeSessionParams: per-session query parameters reach the engine
// (theta=-1 disables IFF, so the boundary grows to the raw UBF verdict).
func TestServeSessionParams(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	var plain, noIFF Summary
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", envelopeBody(t, net), http.StatusCreated, &plain)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions?theta=-1&workers=2", envelopeBody(t, net), http.StatusCreated, &noIFF)
	if noIFF.BoundaryCount < plain.BoundaryCount {
		t.Fatalf("IFF-disabled boundary %d smaller than filtered %d", noIFF.BoundaryCount, plain.BoundaryCount)
	}
	full, err := core.Detect(net, nil, core.Config{IFFThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, b := range full.Boundary {
		if b {
			want++
		}
	}
	if noIFF.BoundaryCount != want {
		t.Fatalf("theta=-1 boundary count %d, library %d", noIFF.BoundaryCount, want)
	}
}

// TestServeMaxSessions: the registry cap turns creation into 429 until a
// session is deleted.
func TestServeMaxSessions(t *testing.T) {
	net := testNetwork(t)
	ts := httptest.NewServer(New(Options{MaxSessions: 2}).Handler())
	defer ts.Close()
	var first Summary
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", envelopeBody(t, net), http.StatusCreated, &first)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", envelopeBody(t, net), http.StatusCreated, nil)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", envelopeBody(t, net), http.StatusTooManyRequests, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+first.Session, nil, http.StatusOK, nil)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", envelopeBody(t, net), http.StatusCreated, nil)
}

// TestServeConcurrentSessions hammers the registry and distinct sessions
// from parallel clients — the race-detector target for the concurrent
// session map (`make race-shard` runs this under -race).
func TestServeConcurrentSessions(t *testing.T) {
	net := testNetwork(t)
	o := &obs.Mem{}
	ts := httptest.NewServer(New(Options{Obs: o}).Handler())
	defer ts.Close()
	env := envelopeBody(t, net)

	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("client %d: %s", c, fmt.Sprintf(format, args...))
			}
			res, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(env))
			if err != nil {
				fail("create: %v", err)
				return
			}
			var sum Summary
			err = json.NewDecoder(res.Body).Decode(&sum)
			res.Body.Close()
			if err != nil || res.StatusCode != http.StatusCreated {
				fail("create: status %d err %v", res.StatusCode, err)
				return
			}
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for step := 0; step < 6; step++ {
				p := geom.V(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*8-4)
				body, _ := json.Marshal(map[string]any{"deltas": []map[string]any{
					{"op": "join", "pos": map[string]float64{"x": p.X, "y": p.Y, "z": p.Z}},
				}})
				res, err := http.Post(ts.URL+"/v1/sessions/"+sum.Session+"/deltas", "application/json", bytes.NewReader(body))
				if err != nil {
					fail("deltas: %v", err)
					return
				}
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					fail("deltas: status %d", res.StatusCode)
					return
				}
				res, err = http.Get(ts.URL + "/v1/sessions")
				if err != nil {
					fail("list: %v", err)
					return
				}
				res.Body.Close()
			}
			res2, err := http.Get(ts.URL + "/v1/sessions/" + sum.Session)
			if err != nil {
				fail("get: %v", err)
				return
			}
			res2.Body.Close()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The session counter saw every creation; nothing was deleted.
	if got := o.Total(obs.StageServe, obs.CtrSessions); got != clients {
		t.Errorf("sessions counter = %d, want %d", got, clients)
	}
}

// TestServeMetricsEndpoint: GET /v1/metrics serves the always-on global
// sink (request spans, session counters) plus a private per-session view
// whose delta counts and repair latencies reflect only that session.
func TestServeMetricsEndpoint(t *testing.T) {
	t.Parallel()
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var mr MetricsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, http.StatusOK, &mr)
	if len(mr.Sessions) != 0 {
		t.Fatalf("fresh server reports sessions: %+v", mr.Sessions)
	}

	var sum Summary
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", envelopeBody(t, testNetwork(t)), http.StatusCreated, &sum)
	body, _ := json.Marshal(map[string]any{"deltas": []map[string]any{
		{"op": "move", "node": 0, "pos": map[string]float64{"x": 0.5, "y": 0.5, "z": 0.5}},
		{"op": "leave", "node": 1},
	}})
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sum.Session+"/deltas", body, http.StatusOK, nil)

	doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, http.StatusOK, &mr)
	if got := mr.Global.Counters["serve/sessions"]; got != 1 {
		t.Fatalf("global serve/sessions = %d, want 1", got)
	}
	if got := mr.Global.Counters["serve/deltas_applied"]; got != 2 {
		t.Fatalf("global serve/deltas = %d, want 2", got)
	}
	if _, ok := mr.Global.Latencies[obs.StageServe.String()]; !ok {
		t.Fatalf("global latencies missing serve stage: %v", mr.Global.Latencies)
	}
	sessView, ok := mr.Sessions[sum.Session]
	if !ok {
		t.Fatalf("metrics missing session %s: %+v", sum.Session, mr.Sessions)
	}
	if got := sessView.Counters["serve/deltas_applied"]; got != 2 {
		t.Fatalf("session serve/deltas = %d, want 2", got)
	}
	// The incremental engine's repair spans land in the session view.
	if st, ok := sessView.Latencies[obs.StageIncremental.String()]; !ok || st.Count < 2 || st.P50NS <= 0 || st.P99NS < st.P50NS {
		t.Fatalf("session incremental latency summary wrong: %+v (ok=%v)", st, ok)
	}
	// The session's private view must not include request-routing spans.
	if got := sessView.Counters["serve/sessions"]; got != 0 {
		t.Fatalf("session view leaked global sessions counter: %d", got)
	}

	// Server-side accessor agrees with the wire rendering.
	if got := srv.Metrics().Total(obs.StageServe, obs.CtrDeltas); got != 2 {
		t.Fatalf("Metrics() deltas = %d, want 2", got)
	}

	// Deleting the session removes its per-session view. (Decode into a
	// fresh value: Unmarshal merges into an existing map.)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+sum.Session, nil, http.StatusOK, nil)
	mr = MetricsResponse{}
	doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, http.StatusOK, &mr)
	if len(mr.Sessions) != 0 {
		t.Fatalf("deleted session still reported: %+v", mr.Sessions)
	}
	// No legacy alias: /metrics is 404, not a deprecated twin.
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics = %d, want 404 (no legacy alias)", res.StatusCode)
	}
}

// cancelObserver cancels a request context when the incremental engine
// reports its k-th UBF dirty set — inside a delta's repair, after the
// delta's topology change.
type cancelObserver struct {
	obs.Mem
	cancel func()
	at     int
	seen   int
}

func (c *cancelObserver) Count(s obs.Stage, ctr obs.Counter, delta int64) {
	c.Mem.Count(s, ctr, delta)
	if s == obs.StageIncremental && ctr == obs.CtrDirtyUBF {
		if c.seen++; c.seen == c.at {
			c.cancel()
		}
	}
}

// TestServeCancelMidBatch: a client that disconnects while a delta batch
// is being applied stops the batch between deltas. The delta in flight
// lands in full, the response reports exactly the applied prefix, and the
// session's verdicts and mesh still equal a full recompute.
func TestServeCancelMidBatch(t *testing.T) {
	net := testNetwork(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co := &cancelObserver{cancel: cancel, at: 2}
	srv := New(Options{Obs: co})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var sum Summary
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", envelopeBody(t, net), http.StatusCreated, &sum)
	pos := net.Positions()
	active := make([]bool, len(pos))
	for i := range active {
		active[i] = true
	}
	cfg := core.Config{}
	diffMeshServed(t, ts.URL, sum.Session, pos, active, net.Radius, cfg) // warm the mesh cache

	// Teleport three boundary nodes far outside the ball: each isolates its
	// node, so a repair cut short leaves a verdict the recompute disagrees
	// with. The observer cancels the request inside the second repair.
	var det Detail
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sum.Session, nil, http.StatusOK, &det)
	far := []geom.Vec3{geom.V(40, 0, 0), geom.V(0, 40, 0), geom.V(0, 0, 40)}
	var wire []map[string]any
	for k, p := range far {
		wire = append(wire, map[string]any{"op": "move", "node": det.Boundary[k], "pos": map[string]float64{"x": p.X, "y": p.Y, "z": p.Z}})
	}
	body, _ := json.Marshal(map[string]any{"deltas": wire})
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+sum.Session+"/deltas", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)

	var fail errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fail); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	for k := 0; k < fail.Applied; k++ {
		pos[det.Boundary[k]] = far[k]
	}
	diffServed(t, ts.URL, sum.Session, pos, active, net.Radius, cfg)
	diffMeshServed(t, ts.URL, sum.Session, pos, active, net.Radius, cfg)
	if rec.Code != http.StatusServiceUnavailable || fail.Applied != 2 || !strings.Contains(fail.Error, "delta 2") {
		t.Fatalf("cancelled batch: status %d, %+v; want 503 after the 2 deltas begun before the cancel", rec.Code, fail)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sum.Session, nil, http.StatusOK, &det)
	if det.DeltasApplied != 2 {
		t.Fatalf("deltas_applied = %d, want 2", det.DeltasApplied)
	}
}
