// Package serve implements boundaryd's HTTP/JSON API: a session registry
// where clients POST a network once (the shared cli.Envelope framing or
// the legacy raw network JSON of internal/export), then stream
// join/leave/move/crash deltas and read back the updated boundary groups.
// Every session, whatever its detector, wraps one core.Incremental engine:
// on an incremental-capable detector (the paper pipeline) a delta
// recomputes only the dirty region around the change, and on the others
// the engine re-runs the detector over the active set.
//
// Routes (every session route lives under the /v1 API version):
//
//	GET    /healthz                   liveness + session count
//	POST   /v1/sessions               create a session from a network
//	GET    /v1/sessions               list session summaries
//	GET    /v1/sessions/{id}          session detail (boundary + groups)
//	GET    /v1/sessions/{id}/mesh     reconstructed boundary surfaces
//	POST   /v1/sessions/{id}/deltas   apply an ordered batch of deltas
//	DELETE /v1/sessions/{id}          drop a session
//
// The mesh route serves one triangular surface per boundary group
// (landmarks with smoothed positions, virtual edges, faces, manifold
// diagnostics). Every session keeps a mesh.Incremental engine warm across
// deltas, so unchanged groups answer from cache and each delta's changed
// edges evict only the surfaces they touch. Topology-only detectors
// (no measurement capability) answer 501 — their groups carry no
// geometry a surface could be anchored to.
//
// Session creation accepts per-session detection parameters as query
// parameters: detector (a core registry name), workers, shards, theta
// (IFF threshold; -1 disables IFF) and ttl (IFF flood hop budget). A
// "detector" field in the posted envelope selects the detector too; the
// query parameter wins when both are present. Omitted parameters fall
// back to the server's defaults, then to the library's paper defaults.
//
// Concurrency: the registry is guarded by an RWMutex; each session has its
// own mutex serializing deltas against reads, so distinct sessions make
// progress in parallel. Every request runs under a StageServe span labeled
// with its route, and the registry maintains the sessions/deltas counters.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// maxBodyBytes bounds request bodies; a million-node network JSON is
// ~60 MB, so this admits the scales the sharded engine targets without
// letting a client exhaust memory outright.
const maxBodyBytes = 256 << 20

// Options configures a Server.
type Options struct {
	// Obs receives request spans, session counters and the incremental
	// engines' dirty-region telemetry; nil disables observation.
	Obs obs.Observer
	// Workers and Shards are the per-session defaults when a create
	// request does not override them.
	Workers int
	Shards  int
	// Detector is the default detector registry name for new sessions
	// ("" = the paper pipeline).
	Detector string
	// MaxSessions caps concurrently held sessions; 0 means 64. Creation
	// beyond the cap fails with 429.
	MaxSessions int
}

// Server is the session registry behind the HTTP API.
type Server struct {
	opts Options
	// metrics is the server's always-on aggregation sink — request
	// spans, session/delta counters and engine telemetry land here
	// regardless of Options.Obs, so GET /v1/metrics always has data.
	metrics *obs.Metrics
	// obs is the effective observer every handler threads through:
	// Tee(Options.Obs, metrics).
	obs obs.Observer

	mu       sync.RWMutex
	sessions map[string]*session
	nextID   int
}

// Metrics exposes the server's always-on aggregation sink — what
// GET /v1/metrics renders as "global". boundaryd samples it into the
// FTDC ring.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// session is one loaded network and its detection engine. mu serializes
// deltas against snapshot reads. metrics aggregates only this session's
// engine activity (initial detection, per-delta repair latency, delta
// counts) for the per-session half of GET /v1/metrics.
type session struct {
	mu       sync.Mutex
	id       string
	detector string
	// inc holds the session's stable-ID detection state; mesh caches its
	// group surfaces across deltas.
	inc     *core.Incremental
	mesh    *mesh.Incremental
	deltas  int64
	metrics *obs.Metrics
	// workers is the session's configured parallelism, reused by the mesh
	// handler's smoothing pass (bit-identical at every width).
	workers int
}

// apply absorbs one delta. ApplyContext is atomic — every error is raised
// before the topology changes — so a nil error is exactly a committed
// topology change, and each one reaches the mesh cache.
func (sess *session) apply(ctx context.Context, o obs.Observer, d core.Delta) (int, error) {
	id, err := sess.inc.ApplyContext(ctx, o, d)
	if err == nil {
		node, peers := sess.inc.LastTopology()
		sess.mesh.Invalidate(o, node, peers)
	}
	return id, err
}

// New builds a Server; call Handler to mount it.
func New(opts Options) *Server {
	if opts.MaxSessions == 0 {
		opts.MaxSessions = 64
	}
	m := &obs.Metrics{}
	return &Server{
		opts:     opts,
		metrics:  m,
		obs:      obs.Tee(opts.Obs, m),
		sessions: make(map[string]*session),
	}
}

// Handler mounts the API routes, each under a StageServe span labeled
// with its pattern.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		pattern string
		fn      http.HandlerFunc
	}{
		{"GET /healthz", s.handleHealth},
		{"GET /v1/metrics", s.handleMetrics},
		{"POST /v1/sessions", s.handleCreate},
		{"GET /v1/sessions", s.handleList},
		{"GET /v1/sessions/{id}", s.handleGet},
		{"GET /v1/sessions/{id}/mesh", s.handleMesh},
		{"DELETE /v1/sessions/{id}", s.handleDelete},
		{"POST /v1/sessions/{id}/deltas", s.handleDeltas},
	} {
		mux.HandleFunc(rt.pattern, s.traced(rt.pattern, rt.fn))
	}
	return mux
}

// traced wraps a handler in a StageServe span labeled with the route.
func (s *Server) traced(route string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		span := obs.StartLabeled(s.obs, obs.StageServe, route)
		defer span.End()
		fn(w, r)
	}
}

// Summary is one session's wire summary.
type Summary struct {
	Session string `json:"session"`
	// Detector is the core registry name of the session's detector.
	Detector string `json:"detector"`
	// Nodes is the stable ID space size (departed nodes included);
	// Active is the currently deployed count.
	Nodes         int   `json:"nodes"`
	Active        int   `json:"active"`
	BoundaryCount int   `json:"boundary_count"`
	GroupCount    int   `json:"group_count"`
	DeltasApplied int64 `json:"deltas_applied"`
}

// Detail is a session's full wire state: the summary plus the boundary
// node IDs and the per-group member lists (stable IDs, ascending).
type Detail struct {
	Summary
	Radius   float64 `json:"radius"`
	Boundary []int   `json:"boundary"`
	Groups   [][]int `json:"groups"`
}

// wireDelta is one delta on the wire.
type wireDelta struct {
	Op   string    `json:"op"`
	Node int       `json:"node"`
	Pos  *wireVec3 `json:"pos,omitempty"`
}

type wireVec3 struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// deltasRequest is the body of POST .../deltas: an ordered batch.
type deltasRequest struct {
	Deltas []wireDelta `json:"deltas"`
}

// deltasResponse reports a batch's outcome. Deltas apply in order, each
// one whole or not at all; Applied counts the prefix that succeeded, and
// Joined lists the stable IDs assigned to join deltas in request order.
// A batch that stops early answers with an errorResponse naming the
// applied prefix: 400 when a delta is refused, 503 when the client went
// away (checked between deltas only).
type deltasResponse struct {
	Applied int     `json:"applied"`
	Joined  []int   `json:"joined,omitempty"`
	Summary Summary `json:"summary"`
}

type errorResponse struct {
	Error   string `json:"error"`
	Applied int    `json:"applied,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// MetricsSnapshot is one sink's wire rendering: counter totals keyed
// "stage/counter" (obs.Metrics.Totals) plus per-stage latency quantile
// summaries.
type MetricsSnapshot struct {
	Counters  map[string]int64            `json:"counters,omitempty"`
	Latencies map[string]obs.LatencyStats `json:"latencies,omitempty"`
}

// MetricsResponse is the GET /v1/metrics body: the server-wide totals
// plus each live session's private view, keyed by session ID.
type MetricsResponse struct {
	Global   MetricsSnapshot            `json:"global"`
	Sessions map[string]MetricsSnapshot `json:"sessions,omitempty"`
}

func snapshotOf(m *obs.Metrics) MetricsSnapshot {
	return MetricsSnapshot{Counters: m.Totals(), Latencies: m.LatencySummaries()}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{Global: snapshotOf(s.metrics)}
	s.mu.RLock()
	if len(s.sessions) > 0 {
		resp.Sessions = make(map[string]MetricsSnapshot, len(s.sessions))
		for id, sess := range s.sessions {
			resp.Sessions[id] = snapshotOf(sess.metrics)
		}
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.sessions)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "sessions": n})
}

// sessionConfig resolves a create request's detection parameters:
// server defaults, then the envelope's detector field, then the query
// parameters — validated once through core.Config.Validate, the same
// choke point the CLIs use.
func (s *Server) sessionConfig(r *http.Request, envDetector string) (core.Config, error) {
	cfg := core.Config{Workers: s.opts.Workers, Shards: s.opts.Shards, Detector: s.opts.Detector}
	if envDetector != "" {
		cfg.Detector = envDetector
	}
	q := r.URL.Query()
	if v := q.Get("detector"); v != "" {
		cfg.Detector = v
	}
	intParam := func(name string, dst *int) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("parameter %s=%q is not an integer", name, v)
		}
		*dst = n
		return nil
	}
	for name, dst := range map[string]*int{
		"workers": &cfg.Workers,
		"shards":  &cfg.Shards,
		"theta":   &cfg.IFFThreshold,
		"ttl":     &cfg.IFFTTL,
	} {
		if err := intParam(name, dst); err != nil {
			return core.Config{}, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	payload := body
	envDetector := ""
	if env, data, err := cli.ReadEnvelope(body); err == nil {
		if env.Tool != "netgen" {
			writeErr(w, http.StatusBadRequest, "envelope from %q, want a netgen network", env.Tool)
			return
		}
		payload = data
		envDetector = env.Detector
	} else if !errors.Is(err, cli.ErrNotEnvelope) {
		// Malformed envelope (trailing data, truncated JSON): refuse
		// rather than reinterpret as a legacy payload.
		writeErr(w, http.StatusBadRequest, "malformed envelope: %v", err)
		return
	}
	net, err := export.ReadNetworkJSON(bytes.NewReader(payload))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "network payload: %v", err)
		return
	}
	cfg, err := s.sessionConfig(r, envDetector)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The session's private metrics sink sees everything its engine
	// emits, starting with the initial detection.
	det, _ := core.LookupDetector(cfg.Detector) // sessionConfig validated the name
	sessMetrics := &obs.Metrics{}
	inc, err := core.NewIncrementalContext(r.Context(), obs.Tee(s.obs, sessMetrics), net, cfg)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "detection: %v", err)
		return
	}

	s.mu.Lock()
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		writeErr(w, http.StatusTooManyRequests, "session limit %d reached", s.opts.MaxSessions)
		return
	}
	s.nextID++
	sess := &session{id: fmt.Sprintf("s%d", s.nextID), detector: det.Name(), inc: inc, mesh: mesh.NewIncremental(mesh.Config{}), metrics: sessMetrics, workers: cfg.Workers}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	obs.Add(s.obs, obs.StageServe, obs.CtrSessions, 1)

	sess.mu.Lock()
	sum := sess.summaryLocked()
	sess.mu.Unlock()
	writeJSON(w, http.StatusCreated, sum)
}

func (s *Server) lookup(id string) *session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[id]
}

// summaryLocked reads the session's summary; callers hold sess.mu.
func (sess *session) summaryLocked() Summary {
	return Summary{
		Session:       sess.id,
		Detector:      sess.detector,
		Nodes:         sess.inc.Len(),
		Active:        sess.inc.ActiveCount(),
		BoundaryCount: sess.inc.BoundaryCount(),
		GroupCount:    len(sess.inc.GroupsView()),
		DeltasApplied: sess.deltas,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.RUnlock()
	out := make([]Summary, 0, len(all))
	for _, sess := range all {
		sess.mu.Lock()
		out = append(out, sess.summaryLocked())
		sess.mu.Unlock()
	}
	// Deterministic listing order: session IDs are "s<n>", so sort by
	// creation number.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && sessionNum(out[j-1].Session) > sessionNum(out[j].Session); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func sessionNum(id string) int {
	n, _ := strconv.Atoi(id[1:])
	return n
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	sess.mu.Lock()
	snap := sess.inc.Snapshot()
	det := Detail{
		Summary: sess.summaryLocked(),
		Radius:  sess.inc.Radius(),
		Groups:  snap.Groups,
	}
	sess.mu.Unlock()
	det.Boundary = make([]int, 0, 64)
	for i, b := range snap.Boundary {
		if b {
			det.Boundary = append(det.Boundary, i)
		}
	}
	det.GroupCount = len(det.Groups)
	writeJSON(w, http.StatusOK, det)
}

// wireLandmark is one mesh vertex on the wire: a landmark node with its
// smoothed (cell-centroid refined) position.
type wireLandmark struct {
	ID int     `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
	Z  float64 `json:"z"`
}

// wireSurface is one boundary group's reconstructed surface on the wire.
// Edges and faces reference landmark IDs; Euler and Closed2Manifold are
// the step-V quality diagnostics.
type wireSurface struct {
	Group           int            `json:"group"`
	GroupSize       int            `json:"group_size"`
	Landmarks       []wireLandmark `json:"landmarks"`
	Edges           []mesh.Edge    `json:"edges"`
	Faces           []mesh.Face    `json:"faces"`
	Flips           int            `json:"flips"`
	Euler           int            `json:"euler"`
	Closed2Manifold bool           `json:"closed_2manifold"`
}

// meshResponse is the GET /v1/sessions/{id}/mesh body.
type meshResponse struct {
	Session  string        `json:"session"`
	Surfaces []wireSurface `json:"surfaces"`
}

func (s *Server) handleMesh(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	det, _ := core.LookupDetector(sess.detector)
	if !det.Caps().Has(core.CapMeasurement) {
		writeErr(w, http.StatusNotImplemented,
			"detector %q is topology-only (no measurement capability): its boundary groups carry no geometry to anchor a surface mesh", sess.detector)
		return
	}
	o := obs.Tee(s.obs, sess.metrics)
	sess.mu.Lock()
	surfs, err := sess.mesh.Surfaces(r.Context(), o, sess.inc, sess.inc.GroupsView(), nil)
	if err != nil {
		sess.mu.Unlock()
		writeErr(w, http.StatusInternalServerError, "mesh: %v", err)
		return
	}
	resp := meshResponse{Session: sess.id, Surfaces: make([]wireSurface, len(surfs))}
	for i, surf := range surfs {
		refined := mesh.RefinedPositionsWorkers(surf, sess.inc.PositionAt, 0.7, sess.workers)
		ws := wireSurface{
			Group:           i,
			GroupSize:       len(surf.Group),
			Landmarks:       make([]wireLandmark, 0, len(surf.Landmarks.IDs)),
			Edges:           surf.Edges,
			Faces:           surf.Faces,
			Flips:           surf.Flips,
			Euler:           surf.Quality.Euler,
			Closed2Manifold: surf.Quality.Closed2Manifold,
		}
		for _, lm := range surf.Landmarks.IDs {
			p := refined[lm]
			ws.Landmarks = append(ws.Landmarks, wireLandmark{ID: lm, X: p.X, Y: p.Y, Z: p.Z})
		}
		resp.Surfaces[i] = ws
	}
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		writeErr(w, http.StatusNotFound, "no session %q", id)
		return
	}
	obs.Add(s.obs, obs.StageServe, obs.CtrSessions, -1)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req deltasRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "deltas body: %v", err)
		return
	}
	if len(req.Deltas) == 0 {
		writeErr(w, http.StatusBadRequest, "empty delta batch")
		return
	}

	deltas := make([]core.Delta, len(req.Deltas))
	for i, wd := range req.Deltas {
		op, ok := core.DeltaOpFromString(wd.Op)
		if !ok {
			writeErr(w, http.StatusBadRequest, "delta %d: unknown op %q", i, wd.Op)
			return
		}
		d := core.Delta{Op: op, Node: wd.Node}
		if op == core.DeltaJoin || op == core.DeltaMove {
			if wd.Pos == nil {
				writeErr(w, http.StatusBadRequest, "delta %d: op %q needs a pos", i, wd.Op)
				return
			}
			d.Pos = geom.V(wd.Pos.X, wd.Pos.Y, wd.Pos.Z)
		}
		deltas[i] = d
	}

	// Per-session metrics see the repair work and the delta counts too.
	o := obs.Tee(s.obs, sess.metrics)
	// A client that goes away stops the batch between deltas, never inside
	// one: each delta runs to completion under a context the disconnect
	// cannot cancel, so the applied prefix is always whole.
	ctx := r.Context()
	applyCtx := context.WithoutCancel(ctx)
	sess.mu.Lock()
	resp := deltasResponse{}
	for i, d := range deltas {
		code, err := http.StatusServiceUnavailable, ctx.Err()
		var id int
		if err == nil {
			code = http.StatusBadRequest
			id, err = sess.apply(applyCtx, o, d)
		}
		if err != nil {
			// Apply validates before it mutates, so the prefix [0, i) is
			// applied and the session stays consistent.
			sess.deltas += int64(i)
			sess.mu.Unlock()
			obs.Add(o, obs.StageServe, obs.CtrDeltas, int64(i))
			writeJSON(w, code, errorResponse{
				Error:   fmt.Sprintf("delta %d (%s): %v", i, d.Op, err),
				Applied: i,
			})
			return
		}
		if d.Op == core.DeltaJoin {
			resp.Joined = append(resp.Joined, id)
		}
	}
	sess.deltas += int64(len(deltas))
	resp.Applied = len(deltas)
	resp.Summary = sess.summaryLocked()
	sess.mu.Unlock()
	obs.Add(o, obs.StageServe, obs.CtrDeltas, int64(len(deltas)))
	writeJSON(w, http.StatusOK, resp)
}
