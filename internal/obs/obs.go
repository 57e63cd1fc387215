// Package obs is the pipeline's zero-dependency observability layer:
// span-style stage events (begin/end with wall time), typed counters
// (balls tested, messages sent/dropped/retransmitted, flips applied, ...),
// and pluggable sinks — in-memory for tests, JSONL for `cmd/experiment
// -trace`, or nothing at all.
//
// The paper's claims are per-stage claims: UBF's ball tests (Sec. II-A),
// IFF's TTL-bounded floods (Sec. II-B), and the five surface-construction
// steps (Sec. III) each have their own cost and failure modes. This
// package gives every stage one vocabulary for reporting that cost, so
// `core.DetectContext`, the sim kernels, `mesh.BuildContext`, and
// `eval.Engine` all emit comparable events.
//
// The no-op path is a hard requirement, not a nicety: a nil Observer must
// add zero allocations and at most a nil check per call site, so the
// instrumented hot paths keep their benchmarked numbers. Every helper in
// this package (Start, Add, Span.End) is nil-safe and returns before
// touching the clock when the observer is nil; observation never changes
// what the pipeline computes, only what it reports.
package obs

import "time"

// Stage identifies one pipeline stage in stage events and counters.
type Stage uint8

const (
	// StageDetect spans one whole core.Detect run.
	StageDetect Stage = iota + 1
	// StageFrames is detection stage 1: per-node MDS frame construction.
	StageFrames
	// StageUBF is detection stage 2: Unit Ball Fitting (Sec. II-A).
	StageUBF
	// StageIFF is detection stage 3: Isolated Fragment Filtering's
	// TTL-bounded flood (Sec. II-B).
	StageIFF
	// StageGrouping is detection stage 4: boundary grouping by min-label
	// propagation (Sec. II-B).
	StageGrouping
	// StageSurface spans one whole mesh.Build run (Sec. III).
	StageSurface
	// StageLandmarks is surface step I: landmark election.
	StageLandmarks
	// StageCDG is surface step II: the Combinatorial Delaunay Graph.
	StageCDG
	// StageCDM is surface step III: the planarized CDM subgraph.
	StageCDM
	// StageTriangulate is surface step IV: polygon triangulation.
	StageTriangulate
	// StageFlip is surface step V: edge flipping.
	StageFlip
	// StageCell is one evaluation cell — a (scenario, level) pair or an
	// ablation variant — in an eval.Engine study; the label names it.
	StageCell
	// StageExperiment spans one cmd/experiment run target.
	StageExperiment
	// StagePartition is the sharded engine's setup phase: spatial shard
	// assignment plus per-shard view (owned + ghost halo) construction.
	StagePartition
	// StageIncremental spans one core.Incremental.Apply: a single
	// join/leave/move/crash delta's dirty-region recomputation.
	StageIncremental
	// StageServe spans one boundaryd HTTP request; the label names the
	// route (e.g. "POST /v1/sessions/{id}/deltas").
	StageServe
	// StageCandidates is the competitor detectors' candidate-selection
	// phase (enclosure tests, contour fields, degree statistics) — the
	// structural analogue of StageUBF for non-paper core.Detector
	// implementations.
	StageCandidates
	// StageMeshInc spans one mesh.Incremental surface serve: cache
	// invalidation plus the rebuild of whichever group surfaces a delta
	// stream dirtied since the last serve.
	StageMeshInc

	stageEnd // sentinel: number of stages + 1
)

var stageNames = [...]string{
	StageDetect:      "detect",
	StageFrames:      "frames",
	StageUBF:         "ubf",
	StageIFF:         "iff",
	StageGrouping:    "grouping",
	StageSurface:     "surface",
	StageLandmarks:   "landmarks",
	StageCDG:         "cdg",
	StageCDM:         "cdm",
	StageTriangulate: "triangulate",
	StageFlip:        "flip",
	StageCell:        "cell",
	StageExperiment:  "experiment",
	StagePartition:   "partition",
	StageIncremental: "incremental",
	StageServe:       "serve",
	StageCandidates:  "candidates",
	StageMeshInc:     "mesh_incremental",
}

// String implements fmt.Stringer; unknown stages print as "stage?".
func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return "stage?"
}

// StageFromString inverts Stage.String; false when unknown.
func StageFromString(name string) (Stage, bool) {
	for s, n := range stageNames {
		if n == name {
			return Stage(s), true
		}
	}
	return 0, false
}

// Transition identifies one kind of node state change — the closed
// vocabulary of the protocol flight recorder. Where counters aggregate
// and spans time, transitions pinpoint: *which* node claimed boundary
// status, had its claim rescinded by IFF, adopted a smaller group label,
// or won a landmark election, in exact protocol order.
type Transition uint8

const (
	// TransBoundaryClaim is a node marking itself boundary after UBF
	// (Sec. II-A): an empty unit ball through the node was found.
	TransBoundaryClaim Transition = iota + 1
	// TransIFFRescind is Isolated Fragment Filtering withdrawing a
	// node's boundary claim (Sec. II-B): fewer than θ fellow candidates
	// answered the TTL-T flood. The event value carries the fragment
	// size that fell short.
	TransIFFRescind
	// TransLabelAdopt is a node adopting a smaller group label during
	// boundary grouping (Sec. II-B). The event value carries the label.
	TransLabelAdopt
	// TransLandmarkElect is a node winning the k-hop landmark election
	// (surface step I).
	TransLandmarkElect

	transitionEnd // sentinel: number of transitions + 1
)

var transitionNames = [...]string{
	TransBoundaryClaim: "boundary_claim",
	TransIFFRescind:    "iff_rescind",
	TransLabelAdopt:    "label_adopt",
	TransLandmarkElect: "landmark_elect",
}

// String implements fmt.Stringer; unknown transitions print as "trans?".
func (t Transition) String() string {
	if int(t) < len(transitionNames) && transitionNames[t] != "" {
		return transitionNames[t]
	}
	return "trans?"
}

// TransitionFromString inverts Transition.String; false when unknown.
func TransitionFromString(name string) (Transition, bool) {
	for t, n := range transitionNames {
		if n == name {
			return Transition(t), true
		}
	}
	return 0, false
}

// Counter identifies one typed counter.
type Counter uint8

const (
	// CtrNodes counts the nodes a stage processed.
	CtrNodes Counter = iota + 1
	// CtrBallsTested counts UBF candidate balls examined (Theorem 1's
	// Θ(ρ²) quantity).
	CtrBallsTested
	// CtrNodesChecked counts UBF point-in-ball membership tests
	// (Theorem 1's Θ(ρ³) quantity).
	CtrNodesChecked
	// CtrUBFBoundary counts nodes UBF marked as boundary candidates.
	CtrUBFBoundary
	// CtrBoundary counts nodes surviving IFF — the final boundary set.
	CtrBoundary
	// CtrGroups counts distinct boundary groups.
	CtrGroups
	// CtrMsgsSent counts send attempts presented to the network
	// (including retransmissions).
	CtrMsgsSent
	// CtrMsgsDelivered counts messages handed to protocol handlers.
	CtrMsgsDelivered
	// CtrMsgsDropped counts deliveries lost to random loss, crashed
	// receivers, or partitions.
	CtrMsgsDropped
	// CtrMsgsDuplicated counts extra copies injected by the fault layer.
	CtrMsgsDuplicated
	// CtrMsgsRetransmitted counts packets re-sent after an ack timeout.
	CtrMsgsRetransmitted
	// CtrMsgsAcked counts acknowledgments processed.
	CtrMsgsAcked
	// CtrMsgsAbandoned counts packets given up on after the retransmit
	// budget.
	CtrMsgsAbandoned
	// CtrFloodRounds counts synchronous kernel rounds to quiescence.
	CtrFloodRounds
	// CtrLandmarks counts elected landmarks (surface step I).
	CtrLandmarks
	// CtrEdgesCDG and CtrEdgesCDM count the step II/III edge sets.
	CtrEdgesCDG
	CtrEdgesCDM
	// CtrFaces counts final mesh triangles.
	CtrFaces
	// CtrFlips counts step-V edge flips applied.
	CtrFlips
	// CtrBFSRuns counts graph traversals started by the surface pipeline
	// (landmark election, the association flood, shortest-path trees
	// started, and any path queries run without trees).
	CtrBFSRuns
	// CtrBFSNodesVisited counts the nodes those traversals reached,
	// including every shortest-path tree's on-demand growth.
	CtrBFSNodesVisited
	// CtrSPTCacheHits counts path/distance queries answered from a
	// landmark's shortest-path tree instead of a fresh BFS.
	CtrSPTCacheHits
	// CtrShards counts the spatial shards a sharded detection ran on.
	CtrShards
	// CtrHaloNodes counts ghost nodes replicated into shard views — the
	// sharded engine's halo-exchange volume, summed over shards.
	CtrHaloNodes
	// CtrSessions tracks live boundaryd sessions: +1 on create, −1 on
	// delete, so the trace total is the number still open at exit.
	CtrSessions
	// CtrDeltas counts join/leave/move/crash deltas applied across all
	// sessions.
	CtrDeltas
	// CtrDirtyUBF counts the nodes whose UBF verdict the incremental
	// engine re-evaluated — the dirty region a delta actually touched.
	CtrDirtyUBF
	// CtrDirtyIFF counts the boundary candidates whose IFF flood count
	// the incremental engine re-evaluated.
	CtrDirtyIFF
	// CtrCandidates counts the nodes a competitor detector marked as
	// boundary candidates before fragment filtering (the
	// StageCandidates analogue of CtrUBFBoundary).
	CtrCandidates
	// CtrLocalTests counts a competitor detector's primary per-node
	// work — enclosure direction tests, contour-field comparisons, or
	// degree-statistic scans (the StageCandidates analogue of
	// CtrBallsTested).
	CtrLocalTests
	// CtrMeshRepairs counts group surfaces the incremental mesh engine
	// rebuilt (cache misses); served surfaces minus repairs is the number
	// answered straight from the cache.
	CtrMeshRepairs
	// CtrDirtyPatch counts the nodes inside rebuilt groups — the dirty
	// patch a delta stream actually forced through the surface pipeline.
	CtrDirtyPatch
	// CtrSPTInvalidated counts cached shortest-path trees discarded by
	// mesh cache invalidation (one entry's landmark SPT set per evicted
	// surface).
	CtrSPTInvalidated

	counterEnd // sentinel: number of counters + 1
)

var counterNames = [...]string{
	CtrNodes:             "nodes",
	CtrBallsTested:       "balls_tested",
	CtrNodesChecked:      "nodes_checked",
	CtrUBFBoundary:       "ubf_boundary",
	CtrBoundary:          "boundary_nodes",
	CtrGroups:            "groups",
	CtrMsgsSent:          "msgs_sent",
	CtrMsgsDelivered:     "msgs_delivered",
	CtrMsgsDropped:       "msgs_dropped",
	CtrMsgsDuplicated:    "msgs_duplicated",
	CtrMsgsRetransmitted: "msgs_retransmitted",
	CtrMsgsAcked:         "msgs_acked",
	CtrMsgsAbandoned:     "msgs_abandoned",
	CtrFloodRounds:       "flood_rounds",
	CtrLandmarks:         "landmarks",
	CtrEdgesCDG:          "cdg_edges",
	CtrEdgesCDM:          "cdm_edges",
	CtrFaces:             "faces",
	CtrFlips:             "flips_applied",
	CtrBFSRuns:           "bfs_runs",
	CtrBFSNodesVisited:   "bfs_nodes_visited",
	CtrSPTCacheHits:      "spt_cache_hits",
	CtrShards:            "shards",
	CtrHaloNodes:         "halo_nodes",
	CtrSessions:          "sessions",
	CtrDeltas:            "deltas_applied",
	CtrDirtyUBF:          "dirty_ubf_nodes",
	CtrDirtyIFF:          "dirty_iff_nodes",
	CtrCandidates:        "candidate_nodes",
	CtrLocalTests:        "local_tests",
	CtrMeshRepairs:       "mesh_repairs",
	CtrDirtyPatch:        "dirty_patch_nodes",
	CtrSPTInvalidated:    "spt_invalidated",
}

// String implements fmt.Stringer; unknown counters print as "counter?".
func (c Counter) String() string {
	if int(c) < len(counterNames) && counterNames[c] != "" {
		return counterNames[c]
	}
	return "counter?"
}

// CounterFromString inverts Counter.String; false when unknown.
func CounterFromString(name string) (Counter, bool) {
	for c, n := range counterNames {
		if n == name {
			return Counter(c), true
		}
	}
	return 0, false
}

// RoundStats is one round's message accounting, attached to RoundEnd by
// the flight recorder: what the round's senders presented to the network
// and what its receivers actually processed. For the synchronous kernel a
// round is a kernel round; for the asynchronous kernel it is one MaxDelay
// window of virtual time. Sends are attributed to the round they were
// issued in, deliveries to the round they were handled in, so
// sent+duplicated−delivered−dropped summed over all rounds is the number
// of messages still in flight when the protocol stopped (zero iff it
// quiesced).
type RoundStats struct {
	// Sent counts send attempts presented to the network this round
	// (retransmissions included, injected duplicates not).
	Sent int64 `json:"sent"`
	// Delivered counts messages handed to protocol handlers this round.
	Delivered int64 `json:"delivered"`
	// Dropped counts deliveries killed this round: random loss and
	// partition cuts at send time, crashed receivers at delivery time.
	Dropped int64 `json:"dropped"`
	// Duplicated counts extra copies the fault layer injected.
	Duplicated int64 `json:"duplicated"`
	// Delayed counts sends held back by fault-injected extra latency.
	Delayed int64 `json:"delayed"`
	// Active counts the nodes that processed a delivery or timer this
	// round — the protocol's frontier size.
	Active int64 `json:"active"`
}

// add accumulates another round's counters (used by trace analytics when
// merging interleaved emitters).
func (r *RoundStats) Add(o RoundStats) {
	r.Sent += o.Sent
	r.Delivered += o.Delivered
	r.Dropped += o.Dropped
	r.Duplicated += o.Duplicated
	r.Delayed += o.Delayed
	r.Active += o.Active
}

// InitRound is the pseudo-round number carrying a protocol's Init-time
// sends: they happen before round 0 executes, so the flight recorder
// reports them as round −1.
const InitRound = -1

// Observer receives stage events, counters, and the flight recorder's
// round and node-transition events. Implementations must be safe for
// concurrent use: the pipeline emits from worker pools.
//
// Callers hold observers as a possibly-nil interface and go through the
// nil-safe package helpers (Start, Add, RoundBegin, RoundEnd,
// NodeTransition); they never call these methods on a value they have
// not nil-checked.
type Observer interface {
	// StageBegin marks the start of a span. label is "" for pipeline
	// stages and a cell identifier for StageCell spans.
	StageBegin(s Stage, label string)
	// StageEnd closes the innermost open span of the stage, carrying the
	// measured wall time.
	StageEnd(s Stage, label string, wallNS int64)
	// Count adds delta to the stage's counter.
	Count(s Stage, c Counter, delta int64)
	// RoundBegin marks the start of one protocol round (InitRound for
	// the Init phase) under the stage.
	RoundBegin(s Stage, round int)
	// RoundEnd closes the round, carrying its message accounting.
	RoundEnd(s Stage, round int, rs RoundStats)
	// NodeTransition records one node state change. value carries the
	// transition's payload (the adopted label, the failing fragment
	// size); zero when the kind needs none.
	NodeTransition(s Stage, t Transition, node int, value int64)
}

// Span is an in-flight stage measurement. The zero value (from a nil
// observer) is inert: End returns immediately. Spans are values — starting
// and ending one allocates nothing.
type Span struct {
	o     Observer
	s     Stage
	label string
	start time.Time
}

// Start begins an unlabeled span on the observer; nil-safe.
func Start(o Observer, s Stage) Span {
	return StartLabeled(o, s, "")
}

// StartLabeled begins a labeled span on the observer; nil-safe. The clock
// is read only when the observer is non-nil.
func StartLabeled(o Observer, s Stage, label string) Span {
	if o == nil {
		return Span{}
	}
	o.StageBegin(s, label)
	return Span{o: o, s: s, label: label, start: time.Now()}
}

// End closes the span with its measured wall time; inert on the zero
// value.
func (sp Span) End() {
	if sp.o == nil {
		return
	}
	sp.o.StageEnd(sp.s, sp.label, time.Since(sp.start).Nanoseconds())
}

// Add emits one counter increment; nil-safe, and silent for zero deltas
// so disabled counters never clutter a trace.
func Add(o Observer, s Stage, c Counter, delta int64) {
	if o == nil || delta == 0 {
		return
	}
	o.Count(s, c, delta)
}

// RoundBegin emits the start of one protocol round; nil-safe.
func RoundBegin(o Observer, s Stage, round int) {
	if o == nil {
		return
	}
	o.RoundBegin(s, round)
}

// RoundEnd emits the end of one protocol round with its message
// accounting; nil-safe.
func RoundEnd(o Observer, s Stage, round int, rs RoundStats) {
	if o == nil {
		return
	}
	o.RoundEnd(s, round, rs)
}

// NodeTransition emits one node state change; nil-safe.
func NodeTransition(o Observer, s Stage, t Transition, node int, value int64) {
	if o == nil {
		return
	}
	o.NodeTransition(s, t, node, value)
}
