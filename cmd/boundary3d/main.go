// Command boundary3d runs the full pipeline end to end on one scenario:
// deploy → range → detect boundary nodes → group → build triangular
// boundary surfaces → export. It prints a summary and optionally writes the
// network (JSON), the boundary set (JSON), and one OFF + OBJ mesh per
// boundary surface — the reproduction's analogue of the paper's rendered
// figures.
//
// Usage:
//
//	boundary3d -scenario fig10 -error 0.2 -k 3 -artifacts out/sphere
//	boundary3d -scenario fig6 -out summary.json -trace trace.jsonl
//
// The shared flags (-seed, -workers, -out, -trace, -pprof) follow the
// repository-wide convention (see internal/cli): -out writes the run
// summary as a JSON envelope (the geometry artifacts keep their own
// -artifacts prefix), -trace records every pipeline stage event as JSONL
// — including the flight recorder's round and transition events, readable
// with cmd/tracestat — and -pprof captures CPU/heap profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/netgen"
	"repro/internal/ranging"
	"repro/internal/routing"
)

// options collects one invocation's parameters: the scenario selection
// plus the repository-wide shared flag block.
type options struct {
	Scenario   string
	ErrorFrac  float64
	K          int
	Scale      float64
	Artifacts  string
	TrueCoords bool
	Refine     bool
	cli.Common
}

func main() {
	var opts options
	flag.StringVar(&opts.Scenario, "scenario", "fig10", "deployment: fig1|fig6|fig7|fig8|fig9|fig10")
	flag.Float64Var(&opts.ErrorFrac, "error", 0, "distance measurement error as a fraction of the radio range (0..1)")
	flag.IntVar(&opts.K, "k", 3, "landmark spacing (mesh fineness)")
	flag.Float64Var(&opts.Scale, "scale", 1.0, "node-count scale factor")
	flag.StringVar(&opts.Artifacts, "artifacts", "", "output path prefix for JSON/OFF/OBJ geometry artifacts (optional)")
	flag.BoolVar(&opts.TrueCoords, "true-coords", false, "skip MDS and use ground-truth coordinates")
	flag.BoolVar(&opts.Refine, "refine", false, "export cell-centroid-refined landmark positions")
	opts.Common.Register(flag.CommandLine)
	flag.Parse()

	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "boundary3d:", err)
		os.Exit(1)
	}
}

func pickScenario(name string) (eval.Scenario, error) {
	for _, sc := range eval.AllScenarios() {
		if sc.Name == name || strings.HasPrefix(sc.Name, name+"-") || strings.HasPrefix(sc.Name, name) {
			return sc, nil
		}
	}
	return eval.Scenario{}, fmt.Errorf("unknown scenario %q (try fig1, fig6..fig10)", name)
}

// summary is the -out envelope payload: the run's detection quality and
// per-surface mesh/routing results.
type summary struct {
	Scenario string       `json:"scenario"`
	Stats    netgen.Stats `json:"stats"`
	Error    float64      `json:"error"`
	Found    int          `json:"found"`
	Correct  int          `json:"correct"`
	Mistaken int          `json:"mistaken"`
	Missing  int          `json:"missing"`
	Groups   int          `json:"groups"`
	Surfaces []surfaceRow `json:"surfaces"`
}

type surfaceRow struct {
	Nodes     int           `json:"nodes"`
	Landmarks int           `json:"landmarks"`
	Quality   mesh.Quality  `json:"quality"`
	Routing   routing.Stats `json:"routing"`
}

func run(w io.Writer, opts options) error {
	sc, err := pickScenario(opts.Scenario)
	if err != nil {
		return err
	}
	sc = sc.Scaled(opts.Scale)
	if opts.Seed != 0 {
		sc.Seed = opts.Seed
	}
	sess, err := opts.Common.Start()
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			sess.Close()
		}
	}()

	fmt.Fprintf(w, "deploying %s (%s): %d surface + %d interior nodes...\n",
		sc.Name, sc.Figure, sc.SurfaceNodes, sc.InteriorNodes)
	net, err := sc.Generate()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "network: %v\n", net.Stats())

	ctx := context.Background()
	cfg := opts.Common.DetectConfig()
	var det *core.Result
	if opts.TrueCoords {
		cfg.Coords = core.CoordsTrue
		det, err = core.DetectContext(ctx, sess.Obs, net, nil, cfg)
	} else {
		meas := net.Measure(ranging.ForFraction(opts.ErrorFrac), sc.Seed*7)
		fmt.Fprintf(w, "ranging: %s\n", meas.Model.Name())
		det, err = core.DetectContext(ctx, sess.Obs, net, meas, cfg)
	}
	if err != nil {
		return err
	}

	truth := net.TrueBoundary()
	sum := summary{Scenario: sc.Name, Stats: net.Stats(), Error: opts.ErrorFrac}
	for i := range truth {
		switch {
		case det.Boundary[i] && truth[i]:
			sum.Correct++
		case det.Boundary[i]:
			sum.Mistaken++
		case truth[i]:
			sum.Missing++
		}
	}
	sum.Found = sum.Correct + sum.Mistaken
	sum.Groups = len(det.Groups)
	fmt.Fprintf(w, "boundary: found=%d correct=%d mistaken=%d missing=%d groups=%d\n",
		sum.Found, sum.Correct, sum.Mistaken, sum.Missing, sum.Groups)

	surfaces, err := mesh.BuildAllContext(ctx, sess.Obs, net.G, det.Groups, mesh.Config{K: opts.K})
	if err != nil {
		return err
	}
	for si, s := range surfaces {
		fmt.Fprintf(w, "surface %d: %d boundary nodes, %d landmarks, %v\n",
			si, len(s.Group), len(s.Landmarks.IDs), s.Quality)
		row := surfaceRow{Nodes: len(s.Group), Landmarks: len(s.Landmarks.IDs), Quality: s.Quality}
		if len(s.Landmarks.IDs) >= 2 {
			overlay := routing.NewOverlay(s, func(n int) geom.Vec3 { return net.Nodes[n].Pos })
			stats, err := overlay.Experiment(200, sc.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  greedy routing: delivery %.1f%%, stretch %.2f\n",
				100*stats.SuccessRate, stats.AvgStretch)
			row.Routing = stats
		}
		sum.Surfaces = append(sum.Surfaces, row)
	}

	if opts.Artifacts != "" {
		if err := writeArtifacts(opts.Artifacts, net, det, surfaces, opts.Refine); err != nil {
			return err
		}
		fmt.Fprintf(w, "artifacts written under %s*\n", opts.Artifacts)
	}
	if opts.Out != "" {
		env := opts.Common.NewEnvelope("boundary3d", map[string]any{
			"scenario": opts.Scenario, "error": opts.ErrorFrac, "k": opts.K,
			"scale": opts.Scale, "true_coords": opts.TrueCoords,
		}, sum)
		if err := cli.WriteEnvelope(opts.Out, env); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote summary envelope to %s\n", opts.Out)
	}

	closed = true
	if err := sess.Close(); err != nil {
		return err
	}
	if opts.Trace != "" {
		fmt.Fprintf(w, "trace: %d events -> %s\n", sess.Events, opts.Trace)
	}
	return nil
}

// writeArtifacts stores the network, detection result, and one OFF + OBJ
// mesh per surface under the given path prefix.
func writeArtifacts(prefix string, net *netgen.Network, det *core.Result, surfaces []*mesh.Surface, refine bool) error {
	writeFile := func(path string, write func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := writeFile(prefix+"-network.json", func(f *os.File) error {
		return export.WriteNetworkJSON(f, net)
	}); err != nil {
		return err
	}
	if err := writeFile(prefix+"-boundary.json", func(f *os.File) error {
		return export.WriteDetectionJSON(f, det.Boundary, det.Groups)
	}); err != nil {
		return err
	}
	for si, s := range surfaces {
		position := func(n int) geom.Vec3 { return net.Nodes[n].Pos }
		if refine {
			refined := mesh.RefinedPositions(s, position, 0.7)
			position = func(n int) geom.Vec3 { return refined[n] }
		}
		verts, edges, faces := export.SurfaceGeometryWith(s, position)
		if err := writeFile(fmt.Sprintf("%s-surface%d.off", prefix, si), func(f *os.File) error {
			return export.WriteOFF(f, verts, faces)
		}); err != nil {
			return err
		}
		if err := writeFile(fmt.Sprintf("%s-surface%d.obj", prefix, si), func(f *os.File) error {
			return export.WriteOBJ(f, verts, edges, faces)
		}); err != nil {
			return err
		}
	}
	return nil
}
