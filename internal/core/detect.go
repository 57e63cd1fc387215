package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mds"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// CoordSource selects how each node obtains the local coordinates UBF
// consumes.
type CoordSource int

const (
	// CoordsMDS builds a local frame per node from measured one-hop
	// distances via MDS — Algorithm 1 step (I), the paper's default.
	CoordsMDS CoordSource = iota + 1
	// CoordsTrue uses ground-truth positions, the "all nodes have known
	// their coordinates" shortcut the paper allows; equivalent to
	// error-free ranging and used as the oracle ablation.
	CoordsTrue
)

// Scope selects how far a node's knowledge of other nodes reaches when it
// judges candidate balls empty.
type Scope int

const (
	// ScopeTwoHop judges emptiness against the two-hop neighborhood.
	// A candidate unit ball touching a node reaches out to 2r from it,
	// so this is the knowledge the paper's Lemma 1 / Theorem 1 analysis
	// assumes ("neighbors within 2r", Θ(ρ) nodes per ball). Under
	// CoordsMDS the two-hop positions are obtained by stitching each
	// neighbor's one-hop MDS frame onto the node's own frame via rigid
	// registration over their shared members (the MDS-MAP(P) patch
	// technique). One extra beacon exchange keeps this localized. This
	// is the pipeline default.
	ScopeTwoHop Scope = iota + 1
	// ScopeOneHop is Algorithm 1 verbatim: only the one-hop neighborhood
	// is known, so the outer half of every candidate ball is invisible.
	// This over-detects interior nodes in sparse pockets (the paper
	// leans on IFF to remove them); it is kept as an ablation.
	ScopeOneHop
)

// Fixed parameters of the paper pipeline and its competitors. The paper
// fixes these (Definition 4's ε is "arbitrarily small"); only θ, T, the
// knowledge scope and the ball size are ever varied (Sec. II-A3, II-B).
const (
	// ubfEpsilon is Definition 4's arbitrarily small ε: the unit ball's
	// radius is r = BallRadiusFactor·(1+ε)·R.
	ubfEpsilon = 1e-9
	// ubfInteriorTolerance is the strict-interior slack, relative to the
	// ball radius, below which a node counts as touching rather than
	// inside.
	ubfInteriorTolerance = 1e-9
	// frameSmacofIterations is the number of SMACOF refinement sweeps
	// each local MDS frame gets under CoordsMDS.
	frameSmacofIterations = 40
	// minSharedForStitch is the minimum number of shared members needed
	// to register a neighbor's frame during two-hop stitching: three
	// points fix a rigid motion; one more adds redundancy against noise.
	minSharedForStitch = 4
	// enclosureMargin is the sv-enclosure competitor's margin: a node is
	// a boundary candidate when some direction's half-space, pushed
	// enclosureMargin·R inward, contains none of its known neighbors.
	enclosureMargin = 0.2
	// degreeFraction is the degree-statistics competitors' threshold:
	// node i is a candidate when deg(i) < degreeFraction · (a mean
	// degree), which roughly matches a node on a flat boundary seeing
	// about half the ball volume an interior node sees.
	degreeFraction = 0.75
)

// Config parameterizes the detection pipeline. The zero value selects the
// paper's defaults.
type Config struct {
	// BallRadiusFactor scales the unit-ball radius relative to the radio
	// range: r = BallRadiusFactor·(1+ε)·R. The zero value means 1
	// (Definition 4's unit ball). Larger values detect only larger holes
	// (Sec. II-A3).
	BallRadiusFactor float64

	// Coords selects the coordinate source. Zero means CoordsMDS when a
	// measurement is supplied to Detect and CoordsTrue otherwise.
	Coords CoordSource
	// Scope selects the emptiness-knowledge scope. Zero means
	// ScopeTwoHop.
	Scope Scope
	// AdaptiveTolFactor scales the node's locally observable coordinate
	// uncertainty into an additional strict-interior tolerance: under
	// noisy coordinates a node only counts as inside a candidate ball
	// when it is deeper than the local uncertainty. The uncertainty
	// estimate is the mean rigid-registration RMSD against the
	// neighbors' frames under ScopeTwoHop (inter-frame inconsistency),
	// falling back to the frame's own measured-distance residual
	// (mds.ResidualRMS) under ScopeOneHop. Zero means 1; negative
	// disables adaptation. Irrelevant under CoordsTrue, where the
	// uncertainty is zero. The factor balances missed boundary nodes
	// (tolerance too small: phantom stitched positions block genuinely
	// empty balls) against mistaken interior nodes (tolerance too
	// large: true occupants get discounted).
	AdaptiveTolFactor float64

	// IFFThreshold is θ: fragments with fewer boundary nodes within
	// IFFTTL hops are filtered. Zero means 20 (the icosahedron bound of
	// Sec. II-B). Negative disables IFF.
	IFFThreshold int
	// IFFTTL is T, the filtering flood's hop budget. Zero means 3.
	IFFTTL int
	// Async executes the flooding phases (IFF and grouping) as message
	// passing on the asynchronous kernel — per-message random delays
	// seeded by AsyncSeed. Without Async or Faults the phases are
	// evaluated directly as graph traversals with the synchronous
	// kernel's exact message and round accounting (flood.go). Both
	// protocols are delay-independent, so the detection outcome is
	// identical; the option exists to demonstrate and test exactly that.
	Async     bool
	AsyncSeed int64

	// Faults, when enabled, injects message loss, duplication, delay,
	// crashes and partitions into the flooding phases, which then run as
	// message passing on the sim kernels with the acknowledged,
	// retransmitting protocol variants, each packet retransmitted at
	// most 3 times (sim.ReliableOptions' default budget). With per-link
	// loss capped at Faults.MaxDropsPerLink ≤ 3, the detection outcome
	// is provably identical to the fault-free run. Each phase derives
	// its own plan: IFF from Faults.Seed, grouping from Faults.Seed+1.
	Faults sim.FaultConfig

	// Workers bounds pipeline parallelism. Zero means GOMAXPROCS. The
	// result is independent of the worker count.
	Workers int

	// Shards, when above 1, schedules the per-node stages (frames and
	// UBF) shard by shard: the node set is cut into that many spatial
	// shards, and each shard runs them over its owned nodes plus a ghost
	// halo of scope hops. IFF and grouping run once over the whole
	// network, as without shards, so every Result field (message and
	// fault counters included) equals the unsharded one for every shard
	// and worker count, and Async and Faults apply unchanged. Zero or 1
	// selects the unsharded schedule. Requires a CapSharded detector.
	Shards int

	// Detector selects the registered detection algorithm by name; ""
	// selects DefaultDetector (the paper's UBF/IFF pipeline). See
	// RegisterDetector and DetectorNames for the registry.
	Detector string
}

func (c Config) withDefaults(haveMeasurement bool) Config {
	if c.BallRadiusFactor == 0 {
		c.BallRadiusFactor = 1
	}
	if c.Coords == 0 {
		if haveMeasurement {
			c.Coords = CoordsMDS
		} else {
			c.Coords = CoordsTrue
		}
	}
	if c.Scope == 0 {
		c.Scope = ScopeTwoHop
	}
	if c.AdaptiveTolFactor == 0 {
		c.AdaptiveTolFactor = 1
	}
	if c.IFFThreshold == 0 {
		c.IFFThreshold = 20
	}
	if c.IFFTTL == 0 {
		c.IFFTTL = 3
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// ballSize returns the UBF candidate-ball radius for radio range
// radioRange, r = BallRadiusFactor·(1+ε)·R, and the strict-interior
// tolerance that goes with it. c must carry its defaults.
func (c Config) ballSize(radioRange float64) (radius, tol float64) {
	radius = c.BallRadiusFactor * (1 + ubfEpsilon) * radioRange
	return radius, ubfInteriorTolerance * radius
}

// Validate is the single validation choke point for detection configs:
// every CLI (via cli.Common), the boundaryd session API, and
// DetectContext itself call it, so a bad width or detector name fails
// identically at every seam. It checks only the fields whose invalid
// values used to be clamped or rejected far from their source; the
// remaining fields are defaulted and checked by the selected detector.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("%w, got %d", ErrNegativeWorkers, c.Workers)
	}
	if c.Shards < 0 {
		return fmt.Errorf("%w, got %d", ErrNegativeShards, c.Shards)
	}
	if _, ok := LookupDetector(c.Detector); !ok {
		return fmt.Errorf("%w %q (valid: %s)", ErrUnknownDetector, c.Detector, detectorNameList())
	}
	return nil
}

// Result is the full outcome of boundary detection on a network.
type Result struct {
	// UBF marks nodes identified by Phase 1 (Unit Ball Fitting).
	UBF []bool
	// Boundary marks nodes surviving Phase 2 (IFF) — the final answer.
	Boundary []bool
	// FragmentSize holds each boundary candidate's IFF flood count (the
	// number of fellow candidates heard within IFFTTL hops, self
	// included).
	FragmentSize []int
	// GroupLabel assigns each final boundary node its boundary's label
	// (the smallest node ID on that boundary); sim.NoGroup elsewhere.
	GroupLabel []int
	// Groups lists the distinct boundaries, each as ascending node IDs.
	Groups [][]int
	// BallsTested and NodesChecked aggregate per-node UBF work for the
	// Theorem 1 complexity study.
	BallsTested  []int
	NodesChecked []int
	// CoordError records, under CoordsMDS, each node's one-hop frame
	// RMSD against true positions after rigid alignment (a localization
	// quality diagnostic); nil under CoordsTrue.
	CoordError []float64
	// IFFMessages and GroupingMessages count the packets exchanged by
	// the two flooding phases — the protocol's communication cost
	// (UBF itself sends nothing beyond the initial beacon exchanges).
	IFFMessages      int
	GroupingMessages int
	// CandidateMessages counts packets exchanged by a competitor
	// detector's candidate-selection phase (e.g. the sv-contour floods);
	// always zero for the paper pipeline, whose UBF phase sends nothing
	// beyond the beacon exchange.
	CandidateMessages int
	// FaultStats aggregates the fault layer's counters across both
	// flooding phases; zero when Config.Faults is disabled.
	FaultStats sim.FaultStats
}

// ErrNoNetwork is returned when Detect is called without a network.
var ErrNoNetwork = errors.New("core: network is required")

// ErrNeedMeasurement is returned when CoordsMDS is selected without a
// measurement.
var ErrNeedMeasurement = errors.New("core: CoordsMDS requires a measurement")

// ErrNegativeWorkers and ErrNegativeShards reject configurations that
// used to be clamped silently (negative Workers became GOMAXPROCS deep in
// the worker pool; negative Shards fell through to the unsharded path).
// A caller asking for a negative width is a caller with a bug — fail
// loudly at the config seam instead.
var (
	ErrNegativeWorkers = errors.New("core: Config.Workers must be >= 0 (0 = one per CPU)")
	ErrNegativeShards  = errors.New("core: Config.Shards must be >= 0 (<= 1 = unsharded)")
)

// frame is one node's local coordinate chart: its closed one-hop
// neighborhood (node first) embedded by MDS.
type frame struct {
	members  []int
	coords   []geom.Vec3
	residual float64 // RMS measured-vs-embedded distance residual
}

// Detect runs the full localized boundary-detection pipeline: local frames,
// Unit Ball Fitting, Isolated Fragment Filtering, and boundary grouping.
// meas may be nil when cfg.Coords is CoordsTrue.
//
// Deprecated: Detect is kept as a thin convenience wrapper for existing
// callers. New code should call DetectContext, which adds cancellation and
// observer injection; Detect is exactly
// DetectContext(context.Background(), nil, net, meas, cfg).
func Detect(net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error) {
	return DetectContext(context.Background(), nil, net, meas, cfg)
}

// DetectContext is Detect with cancellation and observation. ctx is
// checked between stages and inside the parallel per-node loops, so a
// cancelled run returns ctx.Err() promptly without partial results. o, when
// non-nil, receives span events for every stage (detect, frames, ubf, iff,
// grouping) plus typed counters (balls tested, nodes checked, messages
// delivered/dropped/retransmitted, ...); a nil o adds no allocations and no
// measurable cost. Observation never changes the result: verdicts are
// bit-identical with tracing on or off.
//
// DetectContext is the detector dispatcher: cfg.Detector selects the
// registered algorithm ("" = the paper pipeline), and the call is a thin
// compatibility wrapper around Detector.DetectContext — for the paper
// detector its output is bit-identical to the pre-registry pipeline.
func DetectContext(ctx context.Context, o obs.Observer, net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error) {
	if net == nil {
		return nil, ErrNoNetwork
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	det, _ := LookupDetector(cfg.Detector) // Validate vouched for the name
	if cfg.Shards > 1 && !det.Caps().Has(CapSharded) {
		return nil, fmt.Errorf("core: detector %q does not support sharding (Config.Shards = %d)", det.Name(), cfg.Shards)
	}
	return det.DetectContext(ctx, o, net, meas, cfg)
}

// paperDetect is the paper's UBF/IFF pipeline. Frames and Unit Ball
// Fitting (stages 1 and 2) are per node; Config.Shards only changes how
// they are scheduled (shard.go). IFF and grouping (stages 3 and 4) are
// network-wide floods and always run once, in filterAndGroup.
func paperDetect(ctx context.Context, o obs.Observer, net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(meas != nil)
	if cfg.Coords == CoordsMDS && meas == nil {
		return nil, ErrNeedMeasurement
	}
	if cfg.Coords != CoordsMDS && cfg.Coords != CoordsTrue {
		return nil, fmt.Errorf("core: unknown coordinate source %d", cfg.Coords)
	}
	if cfg.Scope != ScopeOneHop && cfg.Scope != ScopeTwoHop {
		return nil, fmt.Errorf("core: unknown scope %d", cfg.Scope)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	detectSpan := obs.Start(o, obs.StageDetect)
	defer detectSpan.End()

	tab := NewNodeTable(net, meas)
	n := tab.Len()
	obs.Add(o, obs.StageDetect, obs.CtrNodes, int64(n))
	res := &Result{
		UBF:          make([]bool, n),
		BallsTested:  make([]int, n),
		NodesChecked: make([]int, n),
	}
	radius, tol := cfg.ballSize(tab.Radius)

	// Stage 1 (CoordsMDS only): every node builds its one-hop MDS frame.
	// The schedule builds the frames and returns the loop stage 2 runs on.
	schedule := nodeStages
	if cfg.Shards > 1 {
		schedule = shardedNodeStages
	}
	forEachNode, err := schedule(ctx, o, tab, cfg, res)
	if err != nil {
		return nil, err
	}

	// Stage 2: Unit Ball Fitting per node. Each worker owns a UBFScratch
	// and an assembleScratch, so the steady-state per-node cost allocates
	// nothing on the CoordsTrue path.
	ubfSpan := obs.Start(o, obs.StageUBF)
	scratch := make([]UBFScratch, cfg.Workers)
	asm := make([]assembleScratch, cfg.Workers)
	err = forEachNode(func(w int, tab *NodeTable, frames []frame, l, g int) {
		coords, candidates, spreads := assembleKnowledge(tab, cfg, frames, l, &asm[w])
		fitNode(&scratch[w], res, g, coords, candidates, spreads, radius, tol, cfg.AdaptiveTolFactor)
	})
	reportUBF(o, res)
	ubfSpan.End()
	if err != nil {
		return nil, err
	}

	if err := filterAndGroup(ctx, o, net, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// nodeFit is stage 2's per-node body: it fits node l of tab, whose frames
// (CoordsMDS; nil otherwise) are frames, and stores the verdict at global
// ID g, on behalf of worker w.
type nodeFit func(w int, tab *NodeTable, frames []frame, l, g int)

// nodeLoop calls fit once for every node of the network, in parallel, and
// stops at the first error (a cancelled context).
type nodeLoop func(fit nodeFit) error

// nodeStages is the unsharded schedule of stages 1 and 2: it builds every
// node's frame (CoordsMDS) and returns the loop that fits every node of
// the whole table, one node per work item. cfg carries defaults.
func nodeStages(ctx context.Context, o obs.Observer, tab *NodeTable, cfg Config, res *Result) (nodeLoop, error) {
	var frames []frame
	if cfg.Coords == CoordsMDS {
		var err error
		if frames, err = buildAllFrames(ctx, o, tab, cfg, res); err != nil {
			return nil, err
		}
	}
	return func(fit nodeFit) error {
		return par.For(tab.Len(), cfg.Workers, func(w, i int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			fit(w, tab, frames, i, i)
			return nil
		})
	}, nil
}

// fitNode runs Unit Ball Fitting over one node's assembled knowledge and
// stores the verdict and work counters at index g of res. Under adaptive
// tolerances (adapt > 0, spreads non-nil: CoordsMDS) every known position
// is discounted by its own locally observable uncertainty — the spread of
// the independent estimates the consensus stitching collected for it —
// but never below the uniform tolerance tol.
func fitNode(s *UBFScratch, res *Result, g int, coords []geom.Vec3, candidates []int, spreads []float64, radius, tol, adapt float64) {
	tolAt := uniformTol(tol)
	if adapt > 0 && spreads != nil {
		tolAt = func(idx int) float64 {
			if a := adapt * spreads[idx]; a > tol {
				return a
			}
			return tol
		}
	}
	r := s.Fit(coords, 0, candidates, radius, tolAt)
	res.UBF[g] = r.Boundary
	res.BallsTested[g] = r.BallsTested
	res.NodesChecked[g] = r.NodesChecked
}

// reportUBF folds the per-node UBF work counters and boundary marks into o
// and records each marked node's boundary claim (Sec. II-A), in ascending
// ID for a deterministic trace.
func reportUBF(o obs.Observer, res *Result) {
	if o == nil {
		return
	}
	var balls, checked, marked int64
	for i := range res.BallsTested {
		balls += int64(res.BallsTested[i])
		checked += int64(res.NodesChecked[i])
		if res.UBF[i] {
			marked++
		}
	}
	obs.Add(o, obs.StageUBF, obs.CtrBallsTested, balls)
	obs.Add(o, obs.StageUBF, obs.CtrNodesChecked, checked)
	obs.Add(o, obs.StageUBF, obs.CtrUBFBoundary, marked)
	for i, b := range res.UBF {
		if b {
			obs.NodeTransition(o, obs.StageUBF, obs.TransBoundaryClaim, i, 0)
		}
	}
}

// filterAndGroup runs detection stages 3 and 4 — Isolated Fragment
// Filtering and boundary grouping — on the candidate set in res.UBF,
// filling Boundary, FragmentSize, GroupLabel, Groups and the message and
// fault counters. The default fault-free synchronous case evaluates both
// floods directly (flood.go); Async and Faults run them on the sim
// kernels. It is shared verbatim between the paper pipeline and the
// competitor detectors (their candidate phases replace UBF, the
// refinement tail is common), which is what keeps the paper path
// bit-identical and gives every detector the hardened fault/async
// protocol variants for free. cfg must already carry defaults.
func filterAndGroup(ctx context.Context, o obs.Observer, net *netgen.Network, cfg Config, res *Result) error {
	n := len(res.UBF)
	var err error

	// Stage 3: Isolated Fragment Filtering by TTL-bounded flooding.
	res.Boundary = make([]bool, n)
	iffSpan := obs.Start(o, obs.StageIFF)
	if cfg.IFFThreshold < 0 {
		copy(res.Boundary, res.UBF)
		res.FragmentSize = make([]int, n)
	} else {
		var counts []int
		var messages int
		// The probe routes the kernels' flight-recorder events and
		// aggregate counters (rounds, sent/delivered, fault totals)
		// straight to the observer; nothing is re-emitted here.
		pr := sim.Probe{Obs: o, Stage: obs.StageIFF}
		switch {
		case cfg.Faults.Enabled():
			iffFaults := cfg.Faults
			// Each phase gets an independent plan; keep the configured
			// seed for IFF and derive the grouping one below.
			plan := sim.NewFaultPlan(iffFaults, n)
			if cfg.Async {
				var stats sim.AsyncResult
				counts, stats, err = sim.AsyncReliableFloodCount(net.G, res.UBF, cfg.IFFTTL, cfg.AsyncSeed, plan, sim.ReliableOptions{}, pr)
				messages = stats.Messages
			} else {
				var stats sim.Result
				counts, stats, err = sim.ReliableFloodCount(net.G, res.UBF, cfg.IFFTTL, plan, sim.ReliableOptions{}, pr)
				messages = stats.Messages
			}
			res.FaultStats.Add(plan.Stats())
		case cfg.Async:
			var stats sim.AsyncResult
			counts, stats, err = sim.AsyncFloodCount(net.G, res.UBF, cfg.IFFTTL, cfg.AsyncSeed, pr)
			messages = stats.Messages
		default:
			// Fault-free synchronous flooding: evaluated directly, with
			// the kernel's exact accounting (flood.go).
			var stats sim.Result
			counts, stats, err = floodCount(ctx, pr, net.G, res.UBF, cfg.IFFTTL, cfg.Workers)
			messages = stats.Messages
		}
		if err != nil {
			iffSpan.End()
			return fmt.Errorf("IFF flooding: %w", err)
		}
		res.IFFMessages = messages
		res.FragmentSize = counts
		for i := range res.Boundary {
			res.Boundary[i] = res.UBF[i] && counts[i] >= cfg.IFFThreshold
			if res.UBF[i] && !res.Boundary[i] {
				// Flight recorder: IFF withdraws the claim; the value is
				// the fragment size that fell short of the threshold.
				obs.NodeTransition(o, obs.StageIFF, obs.TransIFFRescind, i, int64(counts[i]))
			}
		}
	}
	if o != nil {
		var final int64
		for _, b := range res.Boundary {
			if b {
				final++
			}
		}
		obs.Add(o, obs.StageIFF, obs.CtrBoundary, final)
	}
	iffSpan.End()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Stage 4: grouping — boundary nodes of the same surface connect
	// through boundary nodes only (Sec. II-B).
	groupSpan := obs.Start(o, obs.StageGrouping)
	var label []int
	var groupMessages int
	groupPr := sim.Probe{Obs: o, Stage: obs.StageGrouping}
	switch {
	case cfg.Faults.Enabled():
		groupFaults := cfg.Faults
		groupFaults.Seed++
		plan := sim.NewFaultPlan(groupFaults, n)
		if cfg.Async {
			var stats sim.AsyncResult
			label, stats, err = sim.AsyncReliableLabelComponents(net.G, res.Boundary, cfg.AsyncSeed+1, plan, sim.ReliableOptions{}, groupPr)
			groupMessages = stats.Messages
		} else {
			var stats sim.Result
			label, stats, err = sim.ReliableLabelComponents(net.G, res.Boundary, plan, sim.ReliableOptions{}, groupPr)
			groupMessages = stats.Messages
		}
		res.FaultStats.Add(plan.Stats())
	case cfg.Async:
		var stats sim.AsyncResult
		label, stats, err = sim.AsyncLabelComponents(net.G, res.Boundary, cfg.AsyncSeed+1, groupPr)
		groupMessages = stats.Messages
	default:
		var stats sim.Result
		label, stats, err = labelComponents(groupPr, net.G, res.Boundary)
		groupMessages = stats.Messages
	}
	if err != nil {
		groupSpan.End()
		return fmt.Errorf("grouping: %w", err)
	}
	res.GroupingMessages = groupMessages
	res.GroupLabel = label
	res.Groups = sim.Groups(label)
	obs.Add(o, obs.StageGrouping, obs.CtrGroups, int64(len(res.Groups)))
	groupSpan.End()
	return nil
}

// buildAllFrames is detection stage 1, shared by the paper pipeline and
// the enclosure competitor: every node builds its one-hop MDS frame in
// parallel, and res.CoordError records each frame's RMSD against true
// positions. cfg must carry defaults.
func buildAllFrames(ctx context.Context, o obs.Observer, tab *NodeTable, cfg Config, res *Result) ([]frame, error) {
	n := tab.Len()
	framesSpan := obs.Start(o, obs.StageFrames)
	res.CoordError = make([]float64, n)
	frames := make([]frame, n)
	err := par.For(n, cfg.Workers, func(_, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fillFrame(tab, cfg, frames, i, &res.CoordError[i]); err != nil {
			return fmt.Errorf("node %d frame: %w", i, err)
		}
		return nil
	})
	framesSpan.End()
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// fillFrame is stage 1's per-node body: it builds node i's frame into
// frames[i] and, when rmsd is non-nil, stores the frame's RMSD against the
// true positions after rigid alignment there (left as is when the
// alignment fails).
func fillFrame(tab *NodeTable, cfg Config, frames []frame, i int, rmsd *float64) error {
	f, err := buildFrame(tab, cfg, i)
	if err != nil {
		return err
	}
	frames[i] = f
	if rmsd == nil {
		return nil
	}
	truth := make([]geom.Vec3, len(f.members))
	for k, m := range f.members {
		truth[k] = tab.Pos[m]
	}
	if _, e, aerr := geom.AlignRigid(f.coords, truth); aerr == nil {
		*rmsd = e
	}
	return nil
}

// buildFrame embeds node i's closed one-hop neighborhood from measured
// distances.
func buildFrame(tab *NodeTable, cfg Config, i int) (frame, error) {
	members := closedNeighborhood(tab, i)
	dist := func(a, b int) (float64, bool) {
		return tab.MeasLookup(members[a], members[b])
	}
	coords, err := mds.Localize(len(members), dist, frameSmacofIterations)
	if err != nil {
		return frame{}, err
	}
	return frame{
		members:  members,
		coords:   coords,
		residual: mds.ResidualRMS(coords, dist),
	}, nil
}

// assembleScratch holds one worker's reusable buffers for per-node
// knowledge assembly. Stage 2 assembles a fresh view for every node; with
// the buffers (and the stamp array replacing the two-hop dedup map) reused
// across nodes, the steady-state assembly allocates nothing.
type assembleScratch struct {
	members    []int
	candidates []int
	coords     []geom.Vec3
	spreads    []float64
	stamp      []int32 // stamp[u] == epoch ⟺ u already collected
	epoch      int32

	// Two-hop stitching state (CoordsMDS + ScopeTwoHop only): the collected
	// node order, a node-ID→slot map valid under the current epoch, the flat
	// estimate list with its per-slot bucket bounds, and the registration
	// point-pair buffers. Replaces the per-node map[int][]geom.Vec3 the
	// stitcher used to allocate, which dominated the UBF stage's allocation
	// profile.
	order  []int
	slotOf []int32
	ests   []stitchEst
	bucket []int32
	estBuf []geom.Vec3
	d2     []float64
	src    []geom.Vec3
	dst    []geom.Vec3
}

// stitchEst is one position estimate for the node occupying a stitch slot.
type stitchEst struct {
	slot int32
	pos  geom.Vec3
}

// visited returns the stamp array sized for n nodes under a fresh epoch, so
// membership resets in O(1) instead of clearing (or reallocating a map).
func (as *assembleScratch) visited(n int) []int32 {
	if len(as.stamp) < n {
		as.stamp = make([]int32, n)
		as.epoch = 0
	}
	as.epoch++
	if as.epoch == 0 { // epoch wrapped: clear once and restart
		for i := range as.stamp {
			as.stamp[i] = 0
		}
		as.epoch = 1
	}
	return as.stamp
}

// assembleKnowledge produces node i's view for the UBF test: coordinates
// with i first, the candidate indices (its one-hop neighbors), and each
// coordinate's uncertainty estimate (nil under CoordsTrue, meaning exact).
// Returned slices may alias as and are only valid until the next call with
// the same scratch.
func assembleKnowledge(tab *NodeTable, cfg Config, frames []frame, i int, as *assembleScratch) (coords []geom.Vec3, candidates []int, spreads []float64) {
	if cfg.Coords == CoordsTrue {
		coords, candidates = trueKnowledge(tab, tab.Pos, cfg.Scope, i, as)
		return coords, candidates, nil
	}
	candidates = as.oneHopCandidates(len(tab.Neighbors(i)))
	own := frames[i]
	if cfg.Scope == ScopeOneHop {
		spreads = as.spreads[:0]
		for range own.coords {
			spreads = append(spreads, own.residual)
		}
		as.spreads = spreads
		return own.coords, candidates, spreads
	}
	coords, spreads = stitchTwoHop(tab, cfg, frames, i, as)
	return coords, candidates, spreads
}

// trueKnowledge is assembleKnowledge's CoordsTrue view over any adjacency
// rows: i, its one-hop neighbors in row order, then (ScopeTwoHop) the
// two-hop nodes in first-appearance order, at their positions in pos. The
// batch and sharded pipelines call it on a NodeTable and the incremental
// engine on its live stable-ID adjacency, so a refit runs exactly the
// floating-point sequence of a from-scratch run.
func trueKnowledge(rows graph.Rows, pos []geom.Vec3, scope Scope, i int, as *assembleScratch) (coords []geom.Vec3, candidates []int) {
	oneHop := rows.Neighbors(i)
	candidates = as.oneHopCandidates(len(oneHop))
	members := append(as.members[:0], i)
	for _, v := range oneHop {
		members = append(members, int(v))
	}
	if scope == ScopeTwoHop {
		members = extendTwoHop(rows, i, members, as)
	}
	as.members = members
	coords = as.coords[:0]
	for _, m := range members {
		coords = append(coords, pos[m])
	}
	as.coords = coords
	return coords, candidates
}

// oneHopCandidates returns the UBF candidate indices 1..deg: every view
// lays out the node first, then its one-hop neighbors.
func (as *assembleScratch) oneHopCandidates(deg int) []int {
	candidates := as.candidates[:0]
	for k := 1; k <= deg; k++ {
		candidates = append(candidates, k)
	}
	as.candidates = candidates
	return candidates
}

// extendTwoHop appends the two-hop neighbors of i to members (which already
// holds i and its one-hop neighbors), preserving order and uniqueness.
func extendTwoHop(rows graph.Rows, i int, members []int, as *assembleScratch) []int {
	stamp := as.visited(rows.Len())
	e := as.epoch
	for _, m := range members {
		stamp[m] = e
	}
	for _, j := range rows.Neighbors(i) {
		for _, u := range rows.Neighbors(int(j)) {
			if stamp[u] != e {
				stamp[u] = e
				members = append(members, int(u))
			}
		}
	}
	return members
}

// stitchTwoHop extends node i's one-hop MDS frame with two-hop positions by
// rigidly registering each neighbor's frame onto i's own frame over their
// shared one-hop members, then fusing all available estimates per node:
//
//   - a one-hop member's position is its own-frame coordinate, but every
//     registered neighbor frame that also contains it contributes a
//     cross-check estimate;
//   - a two-hop node's position is the centroid of the estimates from the
//     neighbor frames that contain it.
//
// The per-point estimate spread (RMS deviation from the fused position) is
// returned alongside: it is the locally observable uncertainty of that
// coordinate. This catches the failure mode pure stress minimization
// cannot — a loosely-anchored member sitting in a zero-stress reflection —
// because independently-built frames disagree exactly there.
//
// Neighbors whose overlap is too small to register are skipped, as in a
// real deployment where a patch fails to align.
func stitchTwoHop(tab *NodeTable, cfg Config, frames []frame, i int, as *assembleScratch) ([]geom.Vec3, []float64) {
	own := frames[i]

	// Collect every estimate as a (slot, position) pair into one flat list;
	// slots are assigned in first-appearance order (own members first, then
	// two-hop nodes as registered frames surface them), so the slot order is
	// exactly the node order the map-based stitcher produced. The epoch
	// stamp marks which nodes hold a valid slot.
	stamp := as.visited(tab.Len())
	e := as.epoch
	if len(as.slotOf) < tab.Len() {
		as.slotOf = make([]int32, tab.Len())
	}
	slotOf := as.slotOf
	order := as.order[:0]
	ests := as.ests[:0]
	for k, m := range own.members {
		stamp[m] = e
		slotOf[m] = int32(len(order))
		order = append(order, m)
		ests = append(ests, stitchEst{slot: slotOf[m], pos: own.coords[k]})
	}
	nOwn := int32(len(own.members))
	for _, j := range tab.Neighbors(i) {
		fj := frames[j]
		src, dst := as.src[:0], as.dst[:0]
		for k, m := range fj.members {
			// m is one of i's own members iff it is stamped with a slot in
			// the own-member range: two-hop nodes added by earlier
			// neighbors sit at slots >= nOwn.
			if stamp[m] == e && slotOf[m] < nOwn {
				src = append(src, fj.coords[k])
				dst = append(dst, own.coords[slotOf[m]])
			}
		}
		as.src, as.dst = src, dst
		if len(src) < minSharedForStitch {
			continue
		}
		tr, _, err := geom.AlignRigid(src, dst)
		if err != nil {
			continue
		}
		for k, m := range fj.members {
			if stamp[m] != e {
				stamp[m] = e
				slotOf[m] = int32(len(order))
				order = append(order, m)
			}
			ests = append(ests, stitchEst{slot: slotOf[m], pos: tr.Apply(fj.coords[k])})
		}
	}
	as.order, as.ests = order, ests

	// Stable counting sort of the estimates by slot: per-slot buckets in
	// arrival order, identical to the per-node append lists they replace.
	nSlots := len(order)
	if cap(as.bucket) < nSlots+1 {
		as.bucket = make([]int32, nSlots+1)
	}
	cnt := as.bucket[:nSlots+1]
	for k := range cnt {
		cnt[k] = 0
	}
	for _, es := range ests {
		cnt[es.slot+1]++
	}
	for s := 1; s <= nSlots; s++ {
		cnt[s] += cnt[s-1]
	}
	if cap(as.estBuf) < len(ests) {
		as.estBuf = make([]geom.Vec3, len(ests))
	}
	estBuf := as.estBuf[:len(ests)]
	for _, es := range ests {
		estBuf[cnt[es.slot]] = es.pos
		cnt[es.slot]++
	}
	// After the scatter cnt[s] is the end of bucket s.

	if cap(as.coords) < nSlots {
		as.coords = make([]geom.Vec3, nSlots)
	}
	if cap(as.spreads) < nSlots {
		as.spreads = make([]float64, nSlots)
	}
	coords := as.coords[:nSlots]
	spreads := as.spreads[:nSlots]
	lo := int32(0)
	for s := 0; s < nSlots; s++ {
		hi := cnt[s]
		bucket := estBuf[lo:hi]
		lo = hi
		// Fuse by medoid, not centroid: when a member sits in a
		// zero-stress reflection in one frame, its estimates form a
		// correct-majority cluster plus flipped outliers; the medoid
		// snaps to the majority (repairing the position), whereas a
		// centroid would land uselessly in between.
		center := medoid(bucket)
		coords[s] = center
		spreads[s] = clusterSpread(bucket, center, own.residual, &as.d2)
	}
	as.coords, as.spreads = coords, spreads
	return coords, spreads
}

// medoid returns the estimate minimizing the total distance to the others.
// Ties break toward the earliest estimate (the own-frame one for one-hop
// members), keeping fusion deterministic.
func medoid(ests []geom.Vec3) geom.Vec3 {
	if len(ests) == 1 {
		return ests[0]
	}
	best, bestSum := 0, math.Inf(1)
	for i := range ests {
		var sum float64
		for j := range ests {
			sum += ests[i].Dist(ests[j])
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return ests[best]
}

// clusterSpread estimates a fused position's uncertainty as the RMS
// deviation of the nearer half of the estimates (the majority cluster),
// so that a single flipped outlier does not drown the signal; with no
// cross-check available it falls back to the frame residual.
func clusterSpread(ests []geom.Vec3, center geom.Vec3, fallback float64, buf *[]float64) float64 {
	if len(ests) <= 1 {
		return fallback
	}
	d2 := (*buf)[:0]
	for _, e := range ests {
		d2 = append(d2, e.Dist2(center))
	}
	*buf = d2
	// Insertion sort: the estimate count is bounded by the node degree, and
	// sorting in place on the reused buffer keeps the call allocation-free.
	for i := 1; i < len(d2); i++ {
		for j := i; j > 0 && d2[j] < d2[j-1]; j-- {
			d2[j], d2[j-1] = d2[j-1], d2[j]
		}
	}
	// Majority cluster: the nearest ceil(m/2) co-estimates (excluding
	// the zero self-distance at d2[0]).
	keep := (len(d2) + 1) / 2
	if keep < 2 {
		keep = 2
	}
	if keep > len(d2) {
		keep = len(d2)
	}
	var sum float64
	for _, v := range d2[1:keep] {
		sum += v
	}
	if keep <= 1 {
		return fallback
	}
	return math.Sqrt(sum / float64(keep-1))
}

// closedNeighborhood returns node i followed by its one-hop neighbors —
// the set Γ_i of Algorithm 1.
func closedNeighborhood(tab *NodeTable, i int) []int {
	nbrs := tab.Neighbors(i)
	members := make([]int, 0, len(nbrs)+1)
	members = append(members, i)
	for _, v := range nbrs {
		members = append(members, int(v))
	}
	return members
}
