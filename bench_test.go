package repro_test

// One benchmark per table/figure of the paper's evaluation (see DESIGN.md's
// per-experiment index). Benchmarks run the same code paths as
// cmd/experiment at reduced deployment scale so `go test -bench=.` finishes
// in minutes; absolute timings are reported per pipeline stage. They are
// profiling entry points: end-to-end performance is measured by perfbench/,
// and deterministic work is gated by the *WorkBound tests. Every case
// reports allocations, and the cases that run UBF report its work counters
// per op (balls/op, checks/op).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mds"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/ranging"
	"repro/internal/routing"
	"repro/internal/serve"
	"repro/internal/shapes"
	"repro/internal/sim"
)

// benchScale keeps bench deployments small enough for tight iteration.
const benchScale = 0.15

// reportWork reports UBF work summed over b.N iterations as per-op
// metrics.
func reportWork(b *testing.B, balls, checks int64) {
	b.ReportMetric(float64(balls)/float64(b.N), "balls/op")
	b.ReportMetric(float64(checks)/float64(b.N), "checks/op")
}

func sumInts(xs []int) int64 {
	var t int64
	for _, x := range xs {
		t += int64(x)
	}
	return t
}

var (
	benchOnce    sync.Once
	benchNet     *netgen.Network     // fig1 network at bench scale
	benchMeas    *netgen.Measurement // 20 % ranging error
	benchDet     *core.Result
	benchSurface *mesh.Surface
	benchErr     error
)

func benchFixtures(b *testing.B) (*netgen.Network, *netgen.Measurement, *core.Result, *mesh.Surface) {
	b.Helper()
	benchOnce.Do(func() {
		sc := eval.Fig1().Scaled(benchScale)
		benchNet, benchErr = sc.Generate()
		if benchErr != nil {
			return
		}
		benchMeas = benchNet.Measure(ranging.UniformAdditive{Fraction: 0.2}, 1)
		benchDet, benchErr = core.Detect(benchNet, benchMeas, core.Config{})
		if benchErr != nil {
			return
		}
		largest := benchDet.Groups[0]
		for _, g := range benchDet.Groups {
			if len(g) > len(largest) {
				largest = g
			}
		}
		benchSurface, benchErr = mesh.Build(benchNet.G, largest, mesh.Config{K: 3})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchNet, benchMeas, benchDet, benchSurface
}

// BenchmarkPipelineFig1 runs the end-to-end Fig. 1 pipeline: detection on
// MDS coordinates plus surface construction (Figs. 1(b)–(f)).
func BenchmarkPipelineFig1(b *testing.B) {
	net, meas, _, _ := benchFixtures(b)
	var balls, checks int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := core.Detect(net, meas, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		balls += sumInts(det.BallsTested)
		checks += sumInts(det.NodesChecked)
		if _, err := mesh.BuildAll(net.G, det.Groups, mesh.Config{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
	reportWork(b, balls, checks)
}

// BenchmarkFig1gErrorPoint measures one point of the Fig. 1(g) error sweep:
// ranging, detection, classification.
func BenchmarkFig1gErrorPoint(b *testing.B) {
	net, _, _, _ := benchFixtures(b)
	truth := net.TrueBoundary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meas := net.Measure(ranging.UniformAdditive{Fraction: 0.3}, int64(i))
		det, err := core.Detect(net, meas, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := metrics.Classify(truth, det.Boundary); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1hMistakenDistribution measures the hop-distribution pass of
// Fig. 1(h) (and, with the missing set, Fig. 1(i)).
func BenchmarkFig1hMistakenDistribution(b *testing.B) {
	net, _, det, _ := benchFixtures(b)
	truth := net.TrueBoundary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.Evaluate(net.G, truth, det.Boundary, eval.MaxHops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1iMissingDistribution is the missing-node counterpart of the
// previous benchmark (Fig. 1(i)); the evaluation computes both
// distributions, so the cost is shared.
func BenchmarkFig1iMissingDistribution(b *testing.B) {
	BenchmarkFig1hMistakenDistribution(b)
}

// BenchmarkFig1jklMeshUnderError measures one point of the Fig. 1(j)–(l)
// study: surface reconstruction from a noisy detection.
func BenchmarkFig1jklMeshUnderError(b *testing.B) {
	net, _, det, _ := benchFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.BuildAll(net.G, det.Groups, mesh.Config{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScenario runs one Figs. 6–10 scenario study at bench scale.
func benchScenario(b *testing.B, sc eval.Scenario) {
	b.Helper()
	sc = sc.Scaled(benchScale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunScenarioContext(context.Background(), nil, sc, 0, core.Config{}, mesh.Config{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Underwater regenerates the Fig. 6 scenario study.
func BenchmarkFig6Underwater(b *testing.B) { benchScenario(b, eval.Fig6()) }

// BenchmarkFig7OneHole regenerates the Fig. 7 scenario study.
func BenchmarkFig7OneHole(b *testing.B) { benchScenario(b, eval.Fig7()) }

// BenchmarkFig8TwoHoles regenerates the Fig. 8 scenario study.
func BenchmarkFig8TwoHoles(b *testing.B) { benchScenario(b, eval.Fig8()) }

// BenchmarkFig9BentPipe regenerates the Fig. 9 scenario study.
func BenchmarkFig9BentPipe(b *testing.B) { benchScenario(b, eval.Fig9()) }

// BenchmarkFig10Sphere regenerates the Fig. 10 scenario study.
func BenchmarkFig10Sphere(b *testing.B) { benchScenario(b, eval.Fig10()) }

// BenchmarkFig11Sweep measures a mini aggregate sweep (two scenarios ×
// three error levels), the Fig. 11(a)–(c) machinery.
func BenchmarkFig11Sweep(b *testing.B) {
	scenarios := []eval.Scenario{eval.Fig10().Scaled(benchScale), eval.Fig1().Scaled(benchScale)}
	levels := []float64{0, 0.3, 0.6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (eval.Engine{}).AggregateSweep(scenarios, levels, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUBFPerDegree measures the Unit Ball Fitting kernel across nodal
// degrees — the Theorem 1 complexity table. Two call shapes per degree:
//
//   - kernel: the raw one-hop shape (degree+1 coords in a unit ball), the
//     literal Algorithm 1 step II input;
//   - twohop: the pipeline's actual stage-2 shape — the deciding node tests
//     its balls against its full two-hop knowledge, n ≈ 8× degree in a
//     radius-2 ball — where the grid/ordering/scan optimizations act.
//
// Both shapes average over 16 pre-generated instances so candidate-ordering
// heuristics are judged in aggregate rather than on one lucky draw.
func BenchmarkUBFPerDegree(b *testing.B) {
	for _, degree := range []int{10, 18, 30, 45} {
		degree := degree
		b.Run(byDegree(degree), func(b *testing.B) {
			for _, shape := range []struct {
				name   string
				n      int
				radius float64
			}{
				{"kernel", degree + 1, 1},
				{"twohop", 8*degree + 1, 2},
			} {
				shape := shape
				b.Run(shape.name, func(b *testing.B) {
					sets := make([][]geom.Vec3, 16)
					for s := range sets {
						rng := rand.New(rand.NewSource(int64(1000*degree + s)))
						coords := []geom.Vec3{geom.Zero}
						for len(coords) < shape.n {
							coords = append(coords, geom.RandomInBall(rng, geom.Sphere{Radius: shape.radius}))
						}
						sets[s] = coords
					}
					var s core.UBFScratch
					var balls, checks int64
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						r := s.Fit(sets[i%len(sets)], 0, nil, 1.0, ubfTol)
						balls += int64(r.BallsTested)
						checks += int64(r.NodesChecked)
					}
					reportWork(b, balls, checks)
				})
			}
		})
	}
}

// ubfTol is the kernel benchmarks' uniform strict-interior tolerance. They
// hold one UBFScratch each, as every detection worker does.
func ubfTol(int) float64 { return 1e-9 }

func byDegree(d int) string {
	switch {
	case d < 10:
		return "degree0" + string(rune('0'+d))
	default:
		return "degree" + string(rune('0'+d/10)) + string(rune('0'+d%10))
	}
}

// fig1TwoHop builds one two-hop knowledge set at the fig1 average degree
// (~18.8): 151 coords in a radius-2 ball around the deciding node. The
// boundary variant carves a half-space so the origin sits on the hole wall
// — the case where an empty ball exists and candidate ordering decides how
// fast it is found.
func fig1TwoHop(rng *rand.Rand, interior bool) []geom.Vec3 {
	coords := []geom.Vec3{geom.Zero}
	for len(coords) < 151 {
		p := geom.RandomInBall(rng, geom.Sphere{Radius: 2})
		if !interior && p.Z < -0.15 {
			continue // carve a half-space: origin sits on the boundary
		}
		coords = append(coords, p)
	}
	return coords
}

// BenchmarkUBFStageFig1 measures the UBF stage at the exact fig1 call shape
// for an interior node (no empty ball: the full candidate set is exhausted)
// and a boundary node (an empty ball exists: early exit), averaged over 16
// random instances.
func BenchmarkUBFStageFig1(b *testing.B) {
	for _, tc := range []struct {
		name     string
		interior bool
	}{{"interior", true}, {"boundary", false}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			sets := make([][]geom.Vec3, 16)
			for s := range sets {
				sets[s] = fig1TwoHop(rand.New(rand.NewSource(int64(100+s))), tc.interior)
			}
			var s core.UBFScratch
			var balls, checks int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := s.Fit(sets[i%len(sets)], 0, nil, 1.0, ubfTol)
				balls += int64(r.BallsTested)
				checks += int64(r.NodesChecked)
			}
			reportWork(b, balls, checks)
		})
	}
}

// BenchmarkMDSLocalFrame measures one node's local-coordinate construction
// (Algorithm 1 step I substrate).
func BenchmarkMDSLocalFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := []geom.Vec3{geom.Zero}
	for len(pts) < 19 {
		pts = append(pts, geom.RandomInBall(rng, geom.Sphere{Radius: 1}))
	}
	dist := func(x, y int) (float64, bool) {
		d := pts[x].Dist(pts[y])
		return d, d <= 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mds.Localize(len(pts), dist, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIFFFlood measures the Isolated Fragment Filtering flood on the
// bench network.
func BenchmarkIFFFlood(b *testing.B) {
	net, _, det, _ := benchFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.FloodCount(net.G, det.UBF, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrouping measures boundary grouping by label propagation.
func BenchmarkGrouping(b *testing.B) {
	net, _, det, _ := benchFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.LabelComponents(net.G, det.Boundary); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurfaceConstruction measures steps I–V of Sec. III on the bench
// network's largest boundary.
func BenchmarkSurfaceConstruction(b *testing.B) {
	net, _, det, _ := benchFixtures(b)
	largest := det.Groups[0]
	for _, g := range det.Groups {
		if len(g) > len(largest) {
			largest = g
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.Build(net.G, largest, mesh.Config{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	sphereOnce    sync.Once
	sphereNet     *netgen.Network
	sphereGroup   []int
	sphereSurface *mesh.Surface
	sphereErr     error
)

// sphereFixtures builds the Fig. 10 sphere boundary at bench scale — the
// largest surface the benchmarks extract, and the deployment the tentpole
// perf targets are measured on.
func sphereFixtures(b *testing.B) (*netgen.Network, []int, *mesh.Surface) {
	b.Helper()
	sphereOnce.Do(func() {
		sc := eval.Fig10().Scaled(benchScale)
		sphereNet, sphereErr = sc.Generate()
		if sphereErr != nil {
			return
		}
		var det *core.Result
		det, sphereErr = core.Detect(sphereNet, nil, core.Config{})
		if sphereErr != nil {
			return
		}
		sphereGroup = det.Groups[0]
		for _, g := range det.Groups {
			if len(g) > len(sphereGroup) {
				sphereGroup = g
			}
		}
		sphereSurface, sphereErr = mesh.Build(sphereNet.G, sphereGroup, mesh.Config{K: 3})
	})
	if sphereErr != nil {
		b.Fatal(sphereErr)
	}
	return sphereNet, sphereGroup, sphereSurface
}

// BenchmarkMeshSurface measures full surface extraction (landmarks → CDG →
// CDM → triangulation → flips) on the Fig. 10 sphere boundary — the stage
// the CSR/SPT kernel accelerates.
func BenchmarkMeshSurface(b *testing.B) {
	net, group, _ := sphereFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.Build(net.G, group, mesh.Config{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDMPaths measures landmark-pair path extraction from on-demand
// shortest-path trees: every CDM edge of the sphere surface realized via
// SPT.PathTo — the O(path length) query that replaced a full BFS per edge.
// The trees grow during the first iteration; later iterations time the
// extraction alone.
func BenchmarkCDMPaths(b *testing.B) {
	net, group, surf := sphereFixtures(b)
	csr := graph.NewCSR(net.G)
	member := make([]bool, net.Len())
	for _, v := range group {
		member[v] = true
	}
	allowed := graph.NodeSetOf(member)
	treeOf := make(map[int]*graph.SPT, len(surf.Landmarks.IDs))
	for _, lm := range surf.Landmarks.IDs {
		treeOf[lm] = graph.NewSPT(csr, lm, allowed)
	}
	if len(surf.CDM) == 0 {
		b.Skip("no CDM edges on bench surface")
	}
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range surf.CDM {
			buf = treeOf[e[0]].PathTo(e[1], buf[:0])
			if len(buf) == 0 {
				b.Fatalf("no path for CDM edge %v", e)
			}
		}
	}
}

// BenchmarkGreedyRouting measures the motivated application: greedy
// forwarding over the reconstructed surface overlay.
func BenchmarkGreedyRouting(b *testing.B) {
	net, _, _, surface := benchFixtures(b)
	overlay := routing.NewOverlay(surface, func(n int) geom.Vec3 { return net.Nodes[n].Pos })
	lms := overlay.Landmarks()
	if len(lms) < 2 {
		b.Skip("overlay too small")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := lms[i%len(lms)]
		to := lms[(i*7+1)%len(lms)]
		if from == to {
			continue
		}
		if _, err := overlay.Greedy(from, to, 4*len(lms)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkGeneration measures deployment + connectivity
// construction (the simulation substrate itself).
func BenchmarkNetworkGeneration(b *testing.B) {
	sc := eval.Fig10().Scaled(benchScale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectTrueCoords isolates the detection pipeline with the
// localization substrate removed (the oracle ablation).
func BenchmarkDetectTrueCoords(b *testing.B) {
	net, _, _, _ := benchFixtures(b)
	var balls, checks int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := core.Detect(net, nil, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		balls += sumInts(det.BallsTested)
		checks += sumInts(det.NodesChecked)
	}
	reportWork(b, balls, checks)
}

// BenchmarkDegreeBaseline measures the ablation baseline detector.
func BenchmarkDegreeBaseline(b *testing.B) {
	net, _, _, _ := benchFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DegreeBaseline(net); err != nil {
			b.Fatal(err)
		}
	}
}

// Property check run alongside the benches: BFS Lipschitz on the bench
// network guards the graph substrate the benchmarks depend on.
func TestBenchFixtureSanity(t *testing.T) {
	sc := eval.Fig1().Scaled(benchScale)
	net, err := sc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dist := net.G.BFSHops([]int{0}, graph.All, -1)
	for u := range net.G.Adj {
		for _, v := range net.G.Adj[u] {
			du, dv := dist[u], dist[v]
			if du == graph.Unreachable || dv == graph.Unreachable {
				continue
			}
			if du-dv > 1 || dv-du > 1 {
				t.Fatalf("BFS Lipschitz violated on bench network at (%d,%d)", u, v)
			}
		}
	}
}

// Sharded-detection scaling fixture: a ball deployment at 100k nodes
// (override with BENCH_SHARD_NODES, e.g. 1000000 for the EXPERIMENTS.md
// scaling run). The radio range is set analytically to the target average
// degree — r = R·(d/n)^(1/3) gives expected interior degree d — so the
// fixture skips the 48-pass binary search of netgen's radius auto-tuning,
// which at this scale would dwarf the measurement.
var (
	shardBenchOnce sync.Once
	shardBenchNet  *netgen.Network
	shardBenchErr  error
)

func shardBenchFixture(b *testing.B) *netgen.Network {
	b.Helper()
	shardBenchOnce.Do(func() {
		n := 100_000
		if s := os.Getenv("BENCH_SHARD_NODES"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		const bigR = 20.0
		const degree = 14.0
		surface := n / 5
		shardBenchNet, shardBenchErr = netgen.Generate(netgen.Config{
			Shape:         shapes.NewBall(geom.Zero, bigR),
			SurfaceNodes:  surface,
			InteriorNodes: n - surface,
			Radius:        bigR * math.Cbrt(degree/float64(n)),
			Seed:          2026,
		})
	})
	if shardBenchErr != nil {
		b.Fatal(shardBenchErr)
	}
	return shardBenchNet
}

// BenchmarkServeDeltas is the boundaryd load smoke: a session held by the
// HTTP server absorbs a sustained stream of single-delta batches (moves
// over the fig1 bench network) through a real TCP listener. Beyond the
// mean, the run reports the observed p50 and p99 request latencies
// (p50-ms, p99-ms), the incremental engine's tail.
func BenchmarkServeDeltas(b *testing.B) {
	net, _, _, _ := benchFixtures(b)
	ts := httptest.NewServer(serve.New(serve.Options{}).Handler())
	defer ts.Close()
	var netBuf bytes.Buffer
	if err := export.WriteNetworkJSON(&netBuf, net); err != nil {
		b.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/v1/sessions", "application/json", &netBuf)
	if err != nil {
		b.Fatal(err)
	}
	var created struct {
		Session string `json:"session"`
	}
	err = json.NewDecoder(res.Body).Decode(&created)
	res.Body.Close()
	if err != nil || res.StatusCode != http.StatusCreated {
		b.Fatalf("create session: status %d err %v", res.StatusCode, err)
	}
	deltasURL := ts.URL + "/v1/sessions/" + created.Session + "/deltas"

	rng := rand.New(rand.NewSource(17))
	pos := net.Positions()
	step := net.Radius * 0.3
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % len(pos)
		p := pos[id].Add(geom.V(
			(rng.Float64()-0.5)*step, (rng.Float64()-0.5)*step, (rng.Float64()-0.5)*step))
		pos[id] = p
		body := fmt.Sprintf(
			`{"deltas": [{"op": "move", "node": %d, "pos": {"x": %g, "y": %g, "z": %g}}]}`,
			id, p.X, p.Y, p.Z)
		t0 := time.Now()
		res, err := http.Post(deltasURL, "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			b.Fatalf("delta %d: status %s", i, res.Status)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	b.ReportMetric(ms(lat[len(lat)/2]), "p50-ms")
	b.ReportMetric(ms(lat[len(lat)*99/100]), "p99-ms")
}

// BenchmarkDetectSharded measures the sharded detection engine at scale:
// the unsharded pipeline against spatial sharding at one and four workers.
// On a multi-core host the worker sub-cases expose the thread scaling of
// the shard loop; on the single-core reference VM they bound its
// orchestration overhead instead (see EXPERIMENTS.md).
func BenchmarkDetectSharded(b *testing.B) {
	net := shardBenchFixture(b)
	cases := []struct {
		name    string
		shards  int
		workers int
	}{
		{"unsharded", 0, 1},
		{"shards=16/workers=1", 16, 1},
		{"shards=16/workers=4", 16, 4},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			var balls, checks int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det, err := core.Detect(net, nil, core.Config{Shards: bc.shards, Workers: bc.workers})
				if err != nil {
					b.Fatal(err)
				}
				balls += sumInts(det.BallsTested)
				checks += sumInts(det.NodesChecked)
			}
			reportWork(b, balls, checks)
		})
	}
}

// ---- MeshIncremental: per-session cached mesh repair vs from-scratch ----

// meshIncStep is one frame of the prerecorded 50-delta mesh bench session:
// the topology and boundary groups after the delta, plus the (node, peers)
// dirty hint the incremental engine receives. Step 0 is the initial state
// (node < 0: nothing to invalidate). Adjacency is held twice — int rows for
// graph.Graph (the from-scratch arm) and int32 rows for mesh.Topology (the
// engine arm) — so neither arm pays a conversion inside the timed loop.
type meshIncStep struct {
	node   int
	peers  []int32
	groups [][]int
	adj    [][]int
	adj32  [][]int32
}

// meshBenchTopo adapts a frozen adjacency snapshot to mesh.Topology.
type meshBenchTopo struct{ adj [][]int32 }

func (t meshBenchTopo) Len() int                { return len(t.adj) }
func (t meshBenchTopo) Neighbors(u int) []int32 { return t.adj[u] }

var (
	meshIncOnce  sync.Once
	meshIncSteps []meshIncStep
	meshIncErr   error
)

// meshIncFixture records the canonical 50-delta session shape once: a ball
// deployment at the shard-bench density, then 50 random node moves applied
// through core.Incremental with a full state snapshot after each. Movers
// are drawn uniformly from the active set (interior-heavy, like a real
// session), so most deltas leave the boundary group's membership intact
// and the engine serves them from cache.
func meshIncFixture(b *testing.B) []meshIncStep {
	b.Helper()
	meshIncOnce.Do(func() {
		const n = 3600
		const bigR = 20.0
		const degree = 14.0
		surface := n / 8
		net, err := netgen.Generate(netgen.Config{
			Shape:         shapes.NewBall(geom.Zero, bigR),
			SurfaceNodes:  surface,
			InteriorNodes: n - surface,
			Radius:        bigR * math.Cbrt(degree/float64(n)),
			Seed:          2026,
		})
		if err != nil {
			meshIncErr = err
			return
		}
		inc, err := core.NewIncremental(net, core.Config{})
		if err != nil {
			meshIncErr = err
			return
		}
		snap := func(node int, peers []int32) meshIncStep {
			st := meshIncStep{
				node:   node,
				peers:  append([]int32(nil), peers...),
				groups: inc.Groups(),
				adj:    make([][]int, inc.Len()),
				adj32:  make([][]int32, inc.Len()),
			}
			for u := 0; u < inc.Len(); u++ {
				row := inc.Neighbors(u)
				st.adj32[u] = append([]int32(nil), row...)
				r := make([]int, len(row))
				for i, v := range row {
					r[i] = int(v)
				}
				st.adj[u] = r
			}
			return st
		}
		meshIncSteps = append(meshIncSteps, snap(-1, nil))
		rng := rand.New(rand.NewSource(7))
		ids := inc.ActiveIDs()
		for s := 0; s < 50; s++ {
			id := ids[rng.Intn(len(ids))]
			jit := func() float64 { return (rng.Float64() - 0.5) * net.Radius }
			pos := inc.PositionAt(id).Add(geom.V(jit(), jit(), jit()))
			if _, err := inc.Apply(core.Delta{Op: core.DeltaMove, Node: id, Pos: pos}); err != nil {
				meshIncErr = err
				return
			}
			node, peers := inc.LastTopology()
			meshIncSteps = append(meshIncSteps, snap(node, peers))
		}
	})
	if meshIncErr != nil {
		b.Fatal(meshIncErr)
	}
	return meshIncSteps
}

// BenchmarkMeshIncremental is the acceptance benchmark for the per-session
// surface engine: one op replays the prerecorded 50-delta session, either
// rebuilding every boundary surface from scratch after each delta (the
// pre-engine server behaviour) or serving it through one warm
// mesh.Incremental that repairs only invalidated groups. Both arms produce
// bit-identical surfaces (TestMeshIncrementalDifferential); the ratio of
// their ns/op measures the per-delta speedup the engine buys. Nothing
// gates that ratio.
func BenchmarkMeshIncremental(b *testing.B) {
	steps := meshIncFixture(b)
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, st := range steps {
				g := &graph.Graph{Adj: st.adj}
				if _, err := mesh.BuildAll(g, st.groups, mesh.Config{K: 3}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := mesh.NewIncremental(mesh.Config{K: 3})
			var served []*mesh.Surface
			var err error
			for _, st := range steps {
				if st.node >= 0 {
					eng.Invalidate(nil, st.node, st.peers)
				}
				served, err = eng.Surfaces(context.Background(), nil, meshBenchTopo{st.adj32}, st.groups, served[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
