// The two Schieferdecker–Völker-style hole-detection competitors (after
// "Distributed algorithms for hole detection", arXiv 1103.1771),
// transplanted from 2D sensor fields to the repo's 3D substrate:
//
//   - sv-enclosure: the enclosing-circle test becomes an enclosing-cap
//     test. A node whose known neighbors fail to surround it — some
//     direction's half-space, pushed a margin inward, is empty — sits on
//     a boundary. Localized: the decision uses only the node's own
//     (one- or two-hop) coordinate knowledge, under true coordinates or
//     stitched MDS frames alike.
//   - sv-contour: the flooding/contour variant. A handful of spread-out
//     sources flood the network; the hop-distance level sets (contours)
//     expand until they jam against a boundary, so a node none of whose
//     neighbors is farther from some source — a local contour maximum —
//     is a boundary candidate. Pure topology: no coordinates at all.
//
// Both emit candidates under StageCandidates and then run the shared
// fragment-filter + grouping tail, so their Result carries the same
// group structure (and fault/async hardening) as the paper pipeline.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/par"
)

// enclosureDirs is the fixed icosahedral direction set of the enclosing
// test: the 12 icosahedron vertices plus its 30 normalized edge
// midpoints, 42 deterministic unit vectors with ≈20° angular spacing.
var enclosureDirs = buildEnclosureDirs()

func buildEnclosureDirs() []geom.Vec3 {
	const phi = 1.6180339887498948
	raw := []geom.Vec3{
		{X: 0, Y: 1, Z: phi}, {X: 0, Y: 1, Z: -phi}, {X: 0, Y: -1, Z: phi}, {X: 0, Y: -1, Z: -phi},
		{X: 1, Y: phi, Z: 0}, {X: 1, Y: -phi, Z: 0}, {X: -1, Y: phi, Z: 0}, {X: -1, Y: -phi, Z: 0},
		{X: phi, Y: 0, Z: 1}, {X: -phi, Y: 0, Z: 1}, {X: phi, Y: 0, Z: -1}, {X: -phi, Y: 0, Z: -1},
	}
	dirs := make([]geom.Vec3, 0, 42)
	for _, v := range raw {
		dirs = append(dirs, v.Unit())
	}
	verts := dirs[:12:12]
	minD := math.Inf(1)
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			if d := verts[i].Dist(verts[j]); d < minD {
				minD = d
			}
		}
	}
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			if verts[i].Dist(verts[j]) < minD*1.001 {
				dirs = append(dirs, verts[i].Add(verts[j]).Unit())
			}
		}
	}
	return dirs
}

// newCandidateResult allocates the Result skeleton a competitor's
// candidate phase fills; the work arrays exist (zeroed) so downstream
// consumers never branch on the detector.
func newCandidateResult(n int) *Result {
	return &Result{
		UBF:          make([]bool, n),
		BallsTested:  make([]int, n),
		NodesChecked: make([]int, n),
	}
}

// emitCandidates reports a candidate phase's outcome: the marked count,
// the work counter, and one boundary-claim transition per candidate in
// ascending ID (the flight-recorder convention StageUBF established).
func emitCandidates(o obs.Observer, res *Result, localTests int64) {
	if o == nil {
		return
	}
	var marked int64
	for i, b := range res.UBF {
		if b {
			marked++
			obs.NodeTransition(o, obs.StageCandidates, obs.TransBoundaryClaim, i, 0)
		}
	}
	obs.Add(o, obs.StageCandidates, obs.CtrCandidates, marked)
	obs.Add(o, obs.StageCandidates, obs.CtrLocalTests, localTests)
}

// svEnclosureDetector is the enclosing-cap competitor.
type svEnclosureDetector struct{}

func (svEnclosureDetector) Name() string       { return "sv-enclosure" }
func (svEnclosureDetector) Caps() DetectorCaps { return CapFaults | CapMeasurement }

func (svEnclosureDetector) Vocab() DetectorVocab {
	return DetectorVocab{
		Stages: []obs.Stage{
			obs.StageDetect, obs.StageFrames, obs.StageCandidates,
			obs.StageIFF, obs.StageGrouping,
		},
		WorkKeys:    []string{"candidates/local_tests"},
		FloodStages: []obs.Stage{obs.StageIFF, obs.StageGrouping},
	}
}

func (svEnclosureDetector) DetectContext(ctx context.Context, o obs.Observer, net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error) {
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
	res := newCandidateResult(n)
	margin := enclosureMargin * tab.Radius

	var frames []frame
	if cfg.Coords == CoordsMDS {
		var err error
		if frames, err = buildAllFrames(ctx, o, tab, cfg, res); err != nil {
			return nil, err
		}
	}

	// Candidate phase: node i is boundary when some direction's
	// half-space {x : d·(x−pᵢ) > margin·R... pushed inward by the
	// margin} holds none of its known neighbors — the neighborhood does
	// not enclose the node. Work is counted as dot products performed.
	candSpan := obs.Start(o, obs.StageCandidates)
	asm := make([]assembleScratch, cfg.Workers)
	tests := make([]int64, cfg.Workers)
	err := par.For(n, cfg.Workers, func(w, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		coords, _, _ := assembleKnowledge(tab, cfg, frames, i, &asm[w])
		origin := coords[0]
		dirsTried, dots := 0, 0
		open := false
		for _, d := range enclosureDirs {
			dirsTried++
			empty := true
			for _, p := range coords[1:] {
				dots++
				if d.Dot(p.Sub(origin)) >= margin {
					empty = false
					break
				}
			}
			if empty {
				open = true
				break
			}
		}
		res.UBF[i] = open
		res.BallsTested[i] = dirsTried
		res.NodesChecked[i] = dots
		tests[w] += int64(dots)
		return nil
	})
	if o != nil {
		var total int64
		for _, t := range tests {
			total += t
		}
		emitCandidates(o, res, total)
	}
	candSpan.End()
	if err != nil {
		return nil, err
	}

	if err := filterAndGroup(ctx, o, net, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// contourSources is the number of flood sources the sv-contour variant
// spreads by farthest-point sampling.
const contourSources = 4

// svContourDetector is the flooding/contour competitor.
type svContourDetector struct{}

func (svContourDetector) Name() string       { return "sv-contour" }
func (svContourDetector) Caps() DetectorCaps { return CapFaults }

func (svContourDetector) Vocab() DetectorVocab {
	return DetectorVocab{
		Stages: []obs.Stage{
			obs.StageDetect, obs.StageCandidates,
			obs.StageIFF, obs.StageGrouping,
		},
		WorkKeys:    []string{"candidates/local_tests"},
		FloodStages: []obs.Stage{obs.StageCandidates, obs.StageIFF, obs.StageGrouping},
	}
}

func (svContourDetector) DetectContext(ctx context.Context, o obs.Observer, net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(meas != nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	detectSpan := obs.Start(o, obs.StageDetect)
	defer detectSpan.End()

	n := net.Len()
	obs.Add(o, obs.StageDetect, obs.CtrNodes, int64(n))
	res := newCandidateResult(n)

	// Candidate phase: flood hop-distance fields from a few spread-out
	// sources (farthest-point sampling) and mark the local maxima of any
	// field — the nodes whose expanding contour jammed against a
	// boundary. Each flood costs one broadcast per reached node, the
	// distributed protocol's message bill. Source ties break by
	// lexicographic position, not node ID, so the verdict is invariant
	// under node relabeling (the metamorphic suite's contract).
	candSpan := obs.Start(o, obs.StageCandidates)
	fields := make([][]int, 0, contourSources)
	var messages int
	var maxRounds int64
	if n > 0 {
		posLess := func(a, b int) bool {
			pa, pb := net.Nodes[a].Pos, net.Nodes[b].Pos
			switch {
			case pa.X != pb.X:
				return pa.X < pb.X
			case pa.Y != pb.Y:
				return pa.Y < pb.Y
			default:
				return pa.Z < pb.Z
			}
		}
		// minDist[i] tracks the hop distance to the nearest chosen
		// source; unreached nodes count as "infinitely far", so
		// farthest-point sampling hops across disconnected components.
		const far = math.MaxInt32
		minDist := make([]int, n)
		for i := range minDist {
			minDist[i] = far
		}
		src := 0
		for i := 1; i < n; i++ {
			if posLess(i, src) {
				src = i
			}
		}
		for len(fields) < contourSources {
			hops := net.G.BFSHops([]int{src}, graph.All, -1)
			fields = append(fields, hops)
			rounds := 0
			for i, h := range hops {
				if h == graph.Unreachable {
					continue
				}
				messages += net.G.Degree(i)
				if h < minDist[i] {
					minDist[i] = h
				}
				if h > rounds {
					rounds = h
				}
			}
			if int64(rounds) > maxRounds {
				maxRounds = int64(rounds)
			}
			next, best := -1, 0
			for i, d := range minDist {
				if d > best || (d == best && next >= 0 && d > 0 && posLess(i, next)) {
					next, best = i, d
				}
			}
			if next < 0 || best == 0 {
				break // every node is a source already
			}
			src = next
		}
	}
	var tests int64
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			candSpan.End()
			return nil, err
		}
		open := false
		checked := 0
		for _, hops := range fields {
			h := hops[i]
			if h <= 0 {
				continue
			}
			localMax := true
			for _, j := range net.G.Adj[i] {
				checked++
				if hops[j] > h {
					localMax = false
					break
				}
			}
			if localMax {
				open = true
				break
			}
		}
		res.UBF[i] = open
		res.NodesChecked[i] = checked
		tests += int64(checked)
	}
	res.CandidateMessages = messages
	obs.Add(o, obs.StageCandidates, obs.CtrMsgsSent, int64(messages))
	obs.Add(o, obs.StageCandidates, obs.CtrFloodRounds, maxRounds)
	emitCandidates(o, res, tests)
	candSpan.End()

	if err := filterAndGroup(ctx, o, net, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}
