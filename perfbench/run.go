package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/ranging"
)

// errCheck marks a failed output check, as opposed to a run that could not
// be carried out.
var errCheck = errors.New("output check")

// segments is how many pieces the fixed-rate serve phase is cut into. They
// are spread over the run, and each latency metric is the median of
// per-window values within them, so a few seconds of interference from
// outside the process move a few windows, not the metric.
const segments = 3

// deltaWindows and meshWindows are how many consecutive windows each
// segment's deltas and mesh reads are cut into (see segmentLatencies).
const (
	deltaWindows = 6
	meshWindows  = 2
)

// runner holds one run's state.
type runner struct {
	ctx     context.Context
	w       *workload
	seed    int64
	seconds time.Duration
	trace   bool

	conns   int
	client  *http.Client
	network *netgen.Network
	meas    *netgen.Measurement
	srv     *server
	stream  []request
	sent    int // stream[:sent] has been sent
	mir     *mirror

	res  result
	info map[string]any
	segs [][]outcome // the fixed-rate segments' outcomes
	// remeasured counts the segments and rungs measured again because
	// others took the machine meanwhile (at most maxRemeasure per run).
	remeasured int
}

// maxRemeasure bounds how many disturbed segments and ladder rungs one run
// measures again, which bounds the run's length.
const maxRemeasure = 2

// measured sends n requests at the rate and returns their outcomes, sending
// another n in their place — up to the run's maxRemeasure — while others
// took more than disturbedShare of the machine during the attempt. When the
// budget runs out first, the least disturbed attempt stands. Every
// attempt's requests count as attempted and reach the mirror.
func (r *runner) measured(n int, rate float64) []outcome {
	var best []outcome
	bestShare := 2.0
	for {
		settle()
		before := readCPU()
		outs := r.send(n, rate)
		share := othersShare(before, readCPU())
		if share < bestShare {
			best, bestShare = outs, share
		}
		if share <= disturbedShare || r.remeasured == maxRemeasure {
			return best
		}
		r.remeasured++
	}
}

func (r *runner) share(f float64) time.Duration { return time.Duration(f * float64(r.seconds)) }

// batchParts is how many pieces the batch phase is cut into when it runs
// over the generated network. Like the fixed segments they are spread over
// the run: the shared host's speed drifts over seconds, and pipeline_s is
// the median over all the pieces' repetitions.
const batchParts = 3

// run executes one workload run. The timeline is: set-up, warm-up, fixed
// segment, batch part, fixed segment, batch part, ladder (untraced only),
// batch part, fixed segment, then the output checks. A workload whose
// batch phase runs after serving (serve-churn) has no batch parts; its
// whole batch phase, over the final network, comes before the checks.
func run(ctx context.Context, w *workload, seed int64, seconds time.Duration, trace bool) (result, map[string]any, error) {
	conns := min(runtime.NumCPU(), 2)
	r := &runner{
		ctx: ctx, w: w, seed: seed, seconds: seconds, trace: trace, conns: conns,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}},
		res:    result{Correct: true},
		info:   map[string]any{},
	}
	defer r.client.CloseIdleConnections()
	e2e := map[string]metric{}
	layers := map[string]metric{}

	setupS, genS, createS, err := r.setup()
	if err != nil {
		return r.res, r.info, err
	}
	defer r.srv.stop()
	e2e["setup_s"] = metric{median(setupS), "s"}
	layers["netgen.generate_s"] = metric{median(genS), "s"}
	layers["serve.create_s"] = metric{median(createS), "s"}

	nSeg := int(w.traffic.fixedRPS * r.share(w.fixedShare).Seconds() / segments)
	total := warmupRequests + (segments+maxRemeasure)*nSeg
	if !trace {
		for _, rate := range w.traffic.ladder {
			total += int(rate * rungDuration.Seconds())
		}
	}
	r.stream = makeStream(seed+2, r.network, w.traffic, total)
	r.mir = newMirror(r.network)
	r.send(warmupRequests, w.traffic.fixedRPS)

	var br batchResult
	truth := r.network.TrueBoundary()
	part := func() error {
		if w.batchAfterServe {
			return nil
		}
		return r.batch(r.network, r.meas, w.batchShare/batchParts, 1, &br)
	}
	r.segment(nSeg)
	if err := part(); err != nil {
		return r.failed(err)
	}
	if !w.batchAfterServe {
		sharded, _, err := runPipeline(ctx, nil, r.network, r.meas, core.Config{Shards: 16})
		r.res.Attempted++
		if err != nil {
			return r.failed(err)
		}
		if err := diffPipeline(br.first, sharded); err != nil {
			return r.failed(fmt.Errorf("Shards=16 run differs: %w", err))
		}
	}
	r.segment(nSeg)
	if err := part(); err != nil {
		return r.failed(err)
	}
	if !trace {
		maxRPS, steps := r.ladder()
		e2e["max_rps"] = metric{maxRPS, "1/s"}
		r.info["ladder"] = steps
	}
	if err := part(); err != nil {
		return r.failed(err)
	}
	r.segment(nSeg)

	// Output check: the served state must equal a from-scratch pipeline
	// over the final positions.
	det, wm, err := fetchServed(r.client, r.srv)
	r.res.Attempted++
	if err != nil {
		return r.failed(err)
	}
	compact, stable, err := r.mir.compact(r.network.Radius)
	if err != nil {
		return r.failed(err)
	}
	var ref pipelineOut
	if w.batchAfterServe {
		if err := r.batch(compact, nil, w.batchShare, 3, &br); err != nil {
			return r.failed(err)
		}
		ref, truth = br.first, compact.TrueBoundary()
	} else {
		r.res.Attempted++
		if ref, _, err = runPipeline(ctx, nil, compact, nil, core.Config{}); err != nil {
			return r.failed(err)
		}
	}
	if err := diffServed(det, wm, ref, compact, stable); err != nil {
		return r.failed(fmt.Errorf("served state differs from a from-scratch run: %w", err))
	}

	// The final boundary's quality against netgen's ground truth.
	cls, err := metrics.Classify(truth, br.first.res.Boundary)
	if err != nil {
		return r.failed(err)
	}
	walls := make([]float64, len(br.reps))
	allocs := make([]float64, len(br.reps))
	detAlloc := make([]float64, len(br.reps))
	meshAlloc := make([]float64, len(br.reps))
	var cleanWalls []float64
	for i, st := range br.reps {
		walls[i], allocs[i] = st.wall().Seconds(), st.allocMB()
		detAlloc[i], meshAlloc[i] = float64(st.detectAlloc)/(1<<20), float64(st.buildAlloc)/(1<<20)
		if st.others <= disturbedShare {
			cleanWalls = append(cleanWalls, walls[i])
		}
	}
	// pipeline_s is the median over the runs others left the machine to,
	// when there are at least three of them.
	if len(cleanWalls) >= 3 {
		walls = cleanWalls
	}
	e2e["pipeline_s"] = metric{median(walls), "s"}
	e2e["pipeline_alloc_mb"] = metric{median(allocs), "MB"}
	e2e["precision"] = metric{cls.Precision(), "ratio"}
	e2e["recall"] = metric{cls.Recall(), "ratio"}
	r.info["pipeline_runs"], r.info["remeasured"] = len(walls), r.remeasured
	for name, m := range r.segmentLatencies() {
		e2e[name] = m
	}
	e2e["success_frac"] = metric{float64(r.res.Attempted-r.res.Failed) / float64(r.res.Attempted), "ratio"}

	if !trace {
		r.res.Metrics = e2e
		return r.res, r.info, nil
	}

	// Traced run: per-layer metrics from the traced pipeline runs, the
	// traced HTTP phase, and a direct replay of the stream sent.
	var log spanLog
	layers["core.detect.alloc_mb"] = metric{median(detAlloc), "MB"}
	layers["mesh.build.alloc_mb"] = metric{median(meshAlloc), "MB"}
	for name, m := range br.traced[0] {
		vals := make([]float64, len(br.traced))
		for i, t := range br.traced {
			vals[i] = t[name].Value
		}
		layers[name] = metric{median(vals), m.Unit}
	}
	layers["bench.trace_overhead_pct"] = metric{100 * (median(br.tracedWall) - median(walls)) / median(walls), "%"}
	for i, sp := range br.spans {
		log.add(fmt.Sprintf("pipeline-%d", i), sp)
	}

	httpSpans := r.srv.rec.closed()
	log.add("serve", httpSpans)
	layers["serve.handler_self_ms"] = metric{median(handlerSelfMS(httpSpans)), "ms"}
	var lags []float64
	for _, seg := range r.segs {
		for _, o := range seg {
			lags = append(lags, float64(o.lag)/1e6)
		}
	}
	layers["bench.gen_lag_ms"] = metric{quantile(lags, 0.99), "ms"}

	plain, err := replay(ctx, nil, r.network, r.stream[:r.sent])
	if err != nil {
		return r.failed(err)
	}
	rec := newRecorder()
	traced, err := replay(ctx, rec, r.network, r.stream[:r.sent])
	if err != nil {
		return r.failed(err)
	}
	replaySpans := rec.closed()
	log.add("replay", replaySpans)
	deltas, serves := float64(len(traced.apply)), float64(len(traced.surfaces))
	layers["core.incremental.apply_ms"] = metric{median(durations(replaySpans, "incremental")), "ms"}
	layers["core.incremental.dirty_ubf_nodes"] = metric{float64(rec.count("incremental/dirty_ubf_nodes")) / deltas, "count"}
	layers["core.incremental.dirty_iff_nodes"] = metric{float64(rec.count("incremental/dirty_iff_nodes")) / deltas, "count"}
	layers["mesh.incremental.surfaces_ms"] = metric{median(durations(replaySpans, "mesh_incremental")), "ms"}
	layers["mesh.incremental.dirty_patch_nodes"] = metric{float64(rec.count("mesh_incremental/dirty_patch_nodes")) / serves, "count"}
	layers["mesh.incremental.hit_ratio"] = metric{ratio(int64(traced.stats.Hits), int64(traced.stats.Hits+traced.stats.Misses)), "ratio"}
	layers["serve.overhead_ms"] = metric{e2e["delta_p50_ms"].Value - median(plain.apply), "ms"}
	plainMS := sum(plain.apply) + sum(plain.surfaces)
	layers["bench.replay_trace_overhead_pct"] = metric{100 * (sum(traced.apply) + sum(traced.surfaces) - plainMS) / plainMS, "%"}

	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return r.failed(err)
	}
	if err := log.write(path); err != nil {
		return r.failed(err)
	}
	r.info["spans"] = path
	r.res.Metrics = layers
	return r.res, r.info, nil
}

// setup generates the network (plus one ranging pass under MDS), starts
// boundaryd and creates the session, setupReps times; the last server
// stays up. It returns each repetition's total, generation and server
// times in seconds.
func (r *runner) setup() (total, gen, create []float64, err error) {
	for i := 0; i < setupReps; i++ {
		if r.srv != nil {
			r.srv.stop()
			r.srv = nil
		}
		settle()
		t0 := time.Now()
		if r.network, err = r.w.network(); err != nil {
			return nil, nil, nil, err
		}
		if r.w.rangingError > 0 {
			r.meas = r.network.Measure(ranging.UniformAdditive{Fraction: r.w.rangingError}, r.seed+1)
		}
		t1 := time.Now()
		var rec *recorder
		if r.trace {
			rec = newRecorder()
		}
		if r.srv, err = startServer(r.client, r.network, rec); err != nil {
			return nil, nil, nil, err
		}
		total = append(total, time.Since(t0).Seconds())
		gen = append(gen, t1.Sub(t0).Seconds())
		create = append(create, time.Since(t1).Seconds())
	}
	return total, gen, create, nil
}

// settle collects the heap and returns freed memory, so one phase's garbage
// is not billed to the next.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// send offers the next n stream requests at the rate and folds what the
// server acknowledged into the mirror.
func (r *runner) send(n int, rate float64) []outcome {
	outs := openLoop(r.client, r.srv, r.stream, r.sent, n, rate, r.conns)
	r.sent += n
	r.mir.apply(r.network, r.stream, outs)
	r.res.Attempted += len(outs)
	r.res.Failed += countFailed(outs)
	return outs
}

// segment sends one fixed-rate segment.
func (r *runner) segment(n int) {
	r.segs = append(r.segs, r.measured(n, r.w.traffic.fixedRPS))
}

// segmentLatencies reduces the fixed-rate segments to the latency metrics.
// Each segment's deltas are cut into deltaWindows consecutive windows and
// its mesh reads (one request in ten) into meshWindows; each metric is the
// median over all windows of the window's percentile. A stall of the
// machine fills one window's tail, not the metric's.
func (r *runner) segmentLatencies() map[string]metric {
	var d50, d99, m50, m90 []float64
	nDeltas, nMesh := 0, 0
	for _, seg := range r.segs {
		deltaMS, meshMS, _ := latencies(seg, r.stream)
		for _, win := range windows(deltaMS, deltaWindows) {
			d50, d99 = append(d50, quantile(win, 0.5)), append(d99, quantile(win, 0.99))
		}
		for _, win := range windows(meshMS, meshWindows) {
			m50, m90 = append(m50, quantile(win, 0.5)), append(m90, quantile(win, 0.9))
		}
		nDeltas, nMesh = nDeltas+len(deltaMS), nMesh+len(meshMS)
	}
	r.info["fixed_deltas"], r.info["fixed_mesh_reads"] = nDeltas, nMesh
	return map[string]metric{
		"delta_p50_ms": {median(d50), "ms"},
		"delta_p99_ms": {median(d99), "ms"},
		"mesh_p50_ms":  {median(m50), "ms"},
		"mesh_p90_ms":  {median(m90), "ms"},
	}
}

// windows cuts xs into n consecutive windows of (nearly) equal length.
func windows(xs []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for w := range out {
		out[w] = xs[w*len(xs)/n : (w+1)*len(xs)/n]
	}
	return out
}

// batch runs the batch pipeline on a network for a share of the run, with
// at least minReps untraced runs, adding them to br.
func (r *runner) batch(network *netgen.Network, meas *netgen.Measurement, share float64, minReps int, br *batchResult) error {
	settle()
	before := len(br.reps) + len(br.traced)
	err := batchPhase(r.ctx, network, meas, core.Config{}, r.share(share), minReps, r.trace, br)
	r.res.Attempted += len(br.reps) + len(br.traced) - before
	return err
}

// failed turns an error inside a run into a failed output check: the
// result is printed with correct=false.
func (r *runner) failed(err error) (result, map[string]any, error) {
	r.res.Correct = false
	r.res.Failed++
	r.res.Attempted = max(r.res.Attempted, 1)
	return r.res, r.info, fmt.Errorf("%w: %v", errCheck, err)
}

// ladderStep is one rung's outcome, for the descriptive line.
type ladderStep struct {
	RPS      float64 `json:"rps"`
	DeltaP99 float64 `json:"delta_p99_ms"`
	Failed   int     `json:"failed"`
}

// ladder steps through the offered rates, one rungDuration each, until
// three rungs in a row miss the delta p99 limit (a failed request counts as
// missing it). Every rung starts with no backlog: the previous one has
// drained. A single rung's p99 is noisy near the knee, so the rung p99s
// are first made non-decreasing in the rate (pool-adjacent-violators
// averaging); max_rps is where that curve crosses the limit, interpolated
// linearly between the rungs on either side (from the origin if the first
// rung is already over it), or the top rate if it never does.
func (r *runner) ladder() (float64, []ladderStep) {
	var steps []ladderStep
	var rates, p99s []float64
	misses := 0
	for _, rate := range r.w.traffic.ladder {
		outs := r.measured(int(rate*rungDuration.Seconds()), rate)
		deltaMS, _, nFail := latencies(outs, r.stream)
		p99 := quantile(deltaMS, 0.99)
		steps = append(steps, ladderStep{rate, p99, nFail})
		rates, p99s = append(rates, rate), append(p99s, min(p99, 10*deltaLimitMS))
		if p99 <= deltaLimitMS {
			misses = 0
		} else if misses++; misses == 3 {
			break
		}
	}
	return crossing(rates, monotone(p99s), deltaLimitMS), steps
}

// monotone returns the non-decreasing sequence closest to ys in least
// squares (pool-adjacent-violators).
func monotone(ys []float64) []float64 {
	type block struct{ sum, n float64 }
	var bs []block
	for _, y := range ys {
		bs = append(bs, block{y, 1})
		for len(bs) > 1 && bs[len(bs)-2].sum/bs[len(bs)-2].n > bs[len(bs)-1].sum/bs[len(bs)-1].n {
			last := bs[len(bs)-1]
			bs = bs[:len(bs)-1]
			bs[len(bs)-1].sum += last.sum
			bs[len(bs)-1].n += last.n
		}
	}
	out := make([]float64, 0, len(ys))
	for _, b := range bs {
		for i := 0; i < int(b.n); i++ {
			out = append(out, b.sum/b.n)
		}
	}
	return out
}

// crossing is the x where the non-decreasing curve (xs, ys) first exceeds
// limit, interpolated linearly from the point before it (the origin for the
// first); the last x if it never does.
func crossing(xs, ys []float64, limit float64) float64 {
	px, py := 0.0, 0.0
	for i, y := range ys {
		if y > limit {
			return px + (xs[i]-px)*(limit-py)/(y-py)
		}
		px, py = xs[i], y
	}
	return px
}

// handlerSelfMS lists, per delta request, the boundaryd handler's self time:
// decode, validation and encode, without the engines' spans under it.
func handlerSelfMS(spans []span) []float64 {
	self := selfNS(spans)
	var out []float64
	for _, sp := range spans {
		if sp.Stage == "serve" && sp.Label == "POST /v1/sessions/{id}/deltas" {
			out = append(out, float64(self[sp.ID])/1e6)
		}
	}
	return out
}
