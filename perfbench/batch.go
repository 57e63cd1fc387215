package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/netgen"
	"repro/internal/obs"
)

// meshK is the landmark spacing of every surface build (the Fig. 1(f)
// setting, and boundaryd's default).
const meshK = 3

// pipelineOut is one run of the paper pipeline: verdicts and groups from
// detection, one surface per group from meshing.
type pipelineOut struct {
	res   *core.Result
	surfs []*mesh.Surface
}

// repStats is one pipeline run's cost.
type repStats struct {
	detect, build           time.Duration
	detectAlloc, buildAlloc uint64  // bytes allocated
	others                  float64 // share of the machine others took meanwhile
}

func (s repStats) wall() time.Duration { return s.detect + s.build }

func (s repStats) allocMB() float64 { return float64(s.detectAlloc+s.buildAlloc) / (1 << 20) }

// runPipeline is network in → verdicts plus surfaces out, through the public
// entry points core.DetectContext and mesh.BuildAllContext. Allocation is
// read from runtime.MemStats between the two calls, outside both timings.
func runPipeline(ctx context.Context, o obs.Observer, net *netgen.Network, meas *netgen.Measurement, cfg core.Config) (pipelineOut, repStats, error) {
	var m0, m1, m2 runtime.MemStats
	var st repStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := core.DetectContext(ctx, o, net, meas, cfg)
	st.detect = time.Since(t0)
	if err != nil {
		return pipelineOut{}, st, fmt.Errorf("detect: %w", err)
	}
	runtime.ReadMemStats(&m1)
	t1 := time.Now()
	surfs, err := mesh.BuildAllContext(ctx, o, net.G, res.Groups, mesh.Config{K: meshK})
	st.build = time.Since(t1)
	if err != nil {
		return pipelineOut{}, st, fmt.Errorf("mesh: %w", err)
	}
	runtime.ReadMemStats(&m2)
	st.detectAlloc = m1.TotalAlloc - m0.TotalAlloc
	st.buildAlloc = m2.TotalAlloc - m1.TotalAlloc
	return pipelineOut{res, surfs}, st, nil
}

// diffPipeline reports the first difference between two pipeline outputs:
// verdicts, fragment sizes, group labels, groups, and every surface's
// landmarks, edges, faces and flip count.
func diffPipeline(a, b pipelineOut) error {
	if err := diffBools("boundary", a.res.Boundary, b.res.Boundary); err != nil {
		return err
	}
	if err := diffInts("fragment size", a.res.FragmentSize, b.res.FragmentSize); err != nil {
		return err
	}
	if err := diffInts("group label", a.res.GroupLabel, b.res.GroupLabel); err != nil {
		return err
	}
	if len(a.res.Groups) != len(b.res.Groups) {
		return fmt.Errorf("group count %d vs %d", len(a.res.Groups), len(b.res.Groups))
	}
	for g := range a.res.Groups {
		if err := diffInts(fmt.Sprintf("group %d", g), a.res.Groups[g], b.res.Groups[g]); err != nil {
			return err
		}
	}
	if len(a.surfs) != len(b.surfs) {
		return fmt.Errorf("surface count %d vs %d", len(a.surfs), len(b.surfs))
	}
	for i := range a.surfs {
		sa, sb := a.surfs[i], b.surfs[i]
		if err := diffInts(fmt.Sprintf("surface %d landmarks", i), sa.Landmarks.IDs, sb.Landmarks.IDs); err != nil {
			return err
		}
		if len(sa.Edges) != len(sb.Edges) || len(sa.Faces) != len(sb.Faces) || sa.Flips != sb.Flips {
			return fmt.Errorf("surface %d: edges/faces/flips %d/%d/%d vs %d/%d/%d",
				i, len(sa.Edges), len(sa.Faces), sa.Flips, len(sb.Edges), len(sb.Faces), sb.Flips)
		}
		for k := range sa.Edges {
			if sa.Edges[k] != sb.Edges[k] {
				return fmt.Errorf("surface %d edge %d: %v vs %v", i, k, sa.Edges[k], sb.Edges[k])
			}
		}
		for k := range sa.Faces {
			if sa.Faces[k] != sb.Faces[k] {
				return fmt.Errorf("surface %d face %d: %v vs %v", i, k, sa.Faces[k], sb.Faces[k])
			}
		}
	}
	return nil
}

func diffBools(what string, a, b []bool) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: node %d is %v vs %v", what, i, a[i], b[i])
		}
	}
	return nil
}

func diffInts(what string, a, b []int) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: index %d is %d vs %d", what, i, a[i], b[i])
		}
	}
	return nil
}

// batchResult is what the batch phase measured.
type batchResult struct {
	first pipelineOut
	reps  []repStats // untraced runs
	// traced holds one layer-metric map per traced run, plus that run's
	// wall time; empty unless tracing.
	traced     []map[string]metric
	tracedWall []float64
	spans      [][]span
}

// batchPhase runs the pipeline repeatedly for the budget (at least
// minReps untraced runs), adding the runs to br. Every run must reproduce
// br's first run exactly. With tracing on, untraced and traced runs
// alternate, so the difference of their medians is the tracing overhead.
func batchPhase(ctx context.Context, net *netgen.Network, meas *netgen.Measurement, cfg core.Config, budget time.Duration, minReps int, trace bool, br *batchResult) error {
	start := time.Now()
	for untraced := 0; untraced < minReps || time.Since(start) < budget; {
		i := len(br.reps) + len(br.traced)
		var rec *recorder
		var o obs.Observer
		if trace && i%2 == 1 {
			rec = newRecorder()
			o = rec
		}
		// Each run starts from a collected heap, so one run's garbage does
		// not bill the next.
		runtime.GC()
		before := readCPU()
		out, st, err := runPipeline(ctx, o, net, meas, cfg)
		if err != nil {
			return err
		}
		st.others = othersShare(before, readCPU())
		if i == 0 {
			br.first = out
		} else if err := diffPipeline(br.first, out); err != nil {
			return fmt.Errorf("run %d differs from run 0: %w", i, err)
		}
		if rec == nil {
			br.reps = append(br.reps, st)
			untraced++
			continue
		}
		spans := rec.closed()
		br.traced = append(br.traced, pipelineLayers(rec, spans, st))
		br.tracedWall = append(br.tracedWall, st.wall().Seconds())
		br.spans = append(br.spans, spans)
	}
	return nil
}

// pipelineLayers derives the per-layer metrics of one traced pipeline run.
func pipelineLayers(rec *recorder, spans []span, st repStats) map[string]metric {
	self := selfTimes(spans)
	total := totalTimes(spans)
	count := func(key string) metric { return metric{float64(rec.count(key)), "count"} }
	sec := func(v float64) metric { return metric{v, "s"} }
	hits := rec.count("surface/spt_cache_hits")
	// The share of the traced wall time the named layers account for:
	// detection's four stages by self time plus meshing inclusive.
	covered := self["frames"] + self["ubf"] + self["iff"] + self["grouping"] + total["surface"]
	return map[string]metric{
		"core.detect.self_s":           sec(self["detect"]),
		"core.frames_s":                sec(self["frames"]),
		"core.ubf_s":                   sec(self["ubf"]),
		"core.iff_s":                   sec(self["iff"]),
		"core.grouping_s":              sec(self["grouping"]),
		"mesh.surface_s":               sec(total["surface"]),
		"mesh.surface.self_s":          sec(self["surface"]),
		"mesh.landmarks_s":             sec(self["landmarks"]),
		"mesh.cdg_s":                   sec(self["cdg"]),
		"mesh.cdm_s":                   sec(self["cdm"]),
		"mesh.triangulate_s":           sec(self["triangulate"]),
		"mesh.flip_s":                  sec(self["flip"]),
		"core.ubf.balls_tested":        count("ubf/balls_tested"),
		"core.ubf.nodes_checked":       count("ubf/nodes_checked"),
		"core.ubf.grid_cells_probed":   count("ubf/grid_cells_probed"),
		"core.iff.msgs_delivered":      count("iff/msgs_delivered"),
		"core.iff.flood_rounds":        count("iff/flood_rounds"),
		"core.iff.kept_ratio":          {ratio(rec.count("iff/boundary_nodes"), rec.count("ubf/ubf_boundary")), "ratio"},
		"core.grouping.msgs_delivered": count("grouping/msgs_delivered"),
		"mesh.bfs_nodes_visited":       count("surface/bfs_nodes_visited"),
		"mesh.spt_hit_ratio":           {ratio(hits, hits+rec.count("surface/bfs_runs")), "ratio"},
		"bench.layer_coverage":         {covered / st.wall().Seconds(), "ratio"},
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
