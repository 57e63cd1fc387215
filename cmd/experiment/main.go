// Command experiment regenerates the paper's tables and figures. Each -run
// target corresponds to one figure of the evaluation (see DESIGN.md's
// per-experiment index) and prints an aligned text table; -csv additionally
// writes the table to a directory.
//
// Usage:
//
//	experiment -run fig1g            # Fig. 1(g): efficiency vs. error
//	experiment -run fig11a -scale 1  # Fig. 11(a): multi-scenario aggregate
//	experiment -run all -scale 0.25  # everything, at reduced size
//	experiment -run all -workers 4
//	experiment -run faults -async -trace trace.jsonl -pprof prof
//	experiment -run detectors -scale 0.25  # cross-detector comparison table
//	experiment -run fig1g -detector sv-enclosure
//
// The shared flags (-seed, -workers, -out, -trace, -pprof) follow the
// repository-wide convention (see internal/cli): -workers widens the sweep
// engine's worker pool (0 = one worker per CPU; results are identical at
// any width), -out writes the tables as a JSON envelope, -trace records
// every pipeline stage event and counter as JSONL (validated against the
// schema on exit), and -pprof captures CPU/heap profiles. Each experiment
// block is one labeled span on the trace.
//
// Recorded traces carry the protocol flight recorder (per-round message
// accounting and node transitions); analyze them — convergence curves,
// anomaly scan, trace diffs — with cmd/tracestat.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/export"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/shapes"
)

// options collects one invocation's parameters: the experiment selection
// plus the repository-wide shared flag block.
type options struct {
	Run   string
	Scale float64
	K     int
	CSV   string
	// Async executes the flooding phases on the asynchronous kernel —
	// detection outcomes are identical by design; combined with faults
	// (the -run faults sweep) this exercises the fully hardened path.
	Async bool
	cli.Common
}

func main() {
	var opts options
	flag.StringVar(&opts.Run, "run", "all",
		"experiment to run: fig1g|fig1h|fig1i|fig1jkl|fig6|fig7|fig8|fig9|fig10|fig11a|fig11b|fig11c|thm1|ablation|apps|mds|faults|detectors|all")
	flag.Float64Var(&opts.Scale, "scale", 1.0, "node-count scale factor (1.0 = paper size)")
	flag.IntVar(&opts.K, "k", 3, "landmark spacing for mesh construction")
	flag.StringVar(&opts.CSV, "csv", "", "directory to also write tables as CSV (optional)")
	flag.BoolVar(&opts.Async, "async", false, "run the flooding phases on the asynchronous kernel")
	opts.Common.Register(flag.CommandLine)
	flag.Parse()

	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		os.Exit(1)
	}
}

// runner executes one experiment and returns its table(s).
type table struct {
	name   string
	title  string
	header []string
	rows   [][]string
}

// tableJSON is a table's envelope payload form.
type tableJSON struct {
	Name   string     `json:"name"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

func run(w io.Writer, opts options) error {
	start := time.Now()
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

	var tables []table
	add := func(name, title string, header []string, rows [][]string) {
		tables = append(tables, table{name: name, title: title, header: header, rows: rows})
	}

	// SustainedRuns: the detector matrix reruns each cell's detection so
	// the table's p50/p99 columns measure sustained cost, not a cold run.
	eng := eval.Engine{Workers: opts.Workers, Obs: sess.Obs, SustainedRuns: 3}
	detectCfg := opts.Common.DetectConfig()
	detectCfg.Async = opts.Async
	// seed applies the shared -seed override on top of a scenario default.
	seed := func(def int64) int64 {
		if opts.Seed != 0 {
			return opts.Seed
		}
		return def
	}
	// timed wraps one experiment block in a labeled span on the trace.
	timed := func(name string, f func() error) error {
		span := obs.StartLabeled(sess.Obs, obs.StageExperiment, name)
		defer span.End()
		return f()
	}

	wantAll := opts.Run == "all"
	want := func(names ...string) bool {
		if wantAll {
			return true
		}
		for _, n := range names {
			if n == opts.Run {
				return true
			}
		}
		return false
	}
	known := map[string]bool{
		"fig1g": true, "fig1h": true, "fig1i": true, "fig1jkl": true,
		"fig6": true, "fig7": true, "fig8": true, "fig9": true, "fig10": true,
		"fig11a": true, "fig11b": true, "fig11c": true,
		"thm1": true, "ablation": true, "apps": true, "mds": true,
		"faults": true, "detectors": true, "all": true,
	}
	if !known[opts.Run] {
		return fmt.Errorf("unknown experiment %q", opts.Run)
	}

	levels := eval.PaperErrorLevels()
	meshCfg := mesh.Config{K: opts.K}

	// Fig. 1(g)–(i): the error sweep on the Fig. 1 network.
	if want("fig1g", "fig1h", "fig1i") {
		err := timed("fig1-error-sweep", func() error {
			sc := eval.Fig1().Scaled(opts.Scale)
			fmt.Fprintf(w, "generating %s (%d nodes)...\n", sc.Name, sc.SurfaceNodes+sc.InteriorNodes)
			net, err := sc.Generate()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "network: %v\n", net.Stats())
			sweep, err := eng.ErrorSweep(net, sc.Name, levels, detectCfg, seed(sc.Seed))
			if err != nil {
				return err
			}
			if want("fig1g") {
				h, rows := eval.EfficiencyRows(sweep)
				add("fig1g", "Fig. 1(g): boundary nodes vs. distance measurement error ("+sc.Name+")", h, rows)
			}
			if want("fig1h") {
				h, rows := eval.DistributionRows(sweep, false)
				add("fig1h", "Fig. 1(h): mistaken-node hop distribution", h, rows)
			}
			if want("fig1i") {
				h, rows := eval.DistributionRows(sweep, true)
				add("fig1i", "Fig. 1(i): missing-node hop distribution", h, rows)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Fig. 1(j)–(l): mesh quality under 0–40 % error.
	if want("fig1jkl") {
		err := timed("fig1-mesh-study", func() error {
			sc := eval.Fig1().Scaled(opts.Scale)
			shape, err := sc.MakeShape()
			if err != nil {
				return err
			}
			field, _ := shape.(shapes.DistanceField)
			net, err := sc.Generate()
			if err != nil {
				return err
			}
			points, err := eval.RunMeshErrorStudy(net, []float64{0, 0.2, 0.3, 0.4},
				detectCfg, meshCfg, seed(sc.Seed), field)
			if err != nil {
				return err
			}
			h, rows := eval.MeshErrorRows(points)
			add("fig1jkl", "Fig. 1(j)-(l): mesh quality under distance measurement error", h, rows)
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Figs. 6–10: the five scenario studies.
	scenarioRuns := []struct {
		key string
		sc  eval.Scenario
	}{
		{"fig6", eval.Fig6()}, {"fig7", eval.Fig7()}, {"fig8", eval.Fig8()},
		{"fig9", eval.Fig9()}, {"fig10", eval.Fig10()},
	}
	var scenarioReports []*eval.ScenarioReport
	for _, sr := range scenarioRuns {
		if !want(sr.key) {
			continue
		}
		err := timed(sr.key+"-scenario", func() error {
			sc := sr.sc.Scaled(opts.Scale)
			fmt.Fprintf(w, "running %s (%s)...\n", sc.Name, sc.Figure)
			rep, err := eval.RunScenarioContext(context.Background(), sess.Obs, sc, 0, detectCfg, meshCfg)
			if err != nil {
				return err
			}
			scenarioReports = append(scenarioReports, rep)
			return nil
		})
		if err != nil {
			return err
		}
	}
	if len(scenarioReports) > 0 {
		h, rows := eval.ScenarioRows(scenarioReports)
		add("fig6-10", "Figs. 6-10: scenario studies (boundary detection + surface construction + routing)", h, rows)
	}

	// Fig. 11: the aggregate sweep over every scenario.
	if want("fig11a", "fig11b", "fig11c") {
		err := timed("fig11-aggregate-sweep", func() error {
			scenarios := make([]eval.Scenario, 0)
			for _, sc := range eval.AllScenarios() {
				scenarios = append(scenarios, sc.Scaled(opts.Scale))
			}
			fmt.Fprintf(w, "running aggregate sweep over %d scenarios × %d error levels...\n",
				len(scenarios), len(levels))
			agg, err := eng.AggregateSweep(scenarios, levels, detectCfg)
			if err != nil {
				return err
			}
			if want("fig11a") {
				h, rows := eval.EfficiencyRows(agg)
				add("fig11a", "Fig. 11(a): aggregate efficiency vs. distance measurement error", h, rows)
			}
			if want("fig11b") {
				h, rows := eval.DistributionRows(agg, false)
				add("fig11b", "Fig. 11(b): aggregate mistaken-node hop distribution", h, rows)
			}
			if want("fig11c") {
				h, rows := eval.DistributionRows(agg, true)
				add("fig11c", "Fig. 11(c): aggregate missing-node hop distribution", h, rows)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Theorem 1: per-node work vs. density.
	if want("thm1") {
		err := timed("thm1-complexity", func() error {
			makeNet := eval.Fig10().Scaled(opts.Scale)
			points, err := eval.RunComplexityStudy(func(deg float64) (*netgen.Network, error) {
				sc := makeNet
				sc.TargetDegree = deg
				return sc.Generate()
			}, []float64{8, 12, 18.5, 25, 35}, detectCfg)
			if err != nil {
				return err
			}
			h, rows := eval.ComplexityRows(points)
			add("thm1", "Theorem 1: UBF per-node work vs. nodal degree (balls ~ ρ², checks ~ ρ³)", h, rows)
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Localization-quality study: the mechanism behind Fig. 1(g)'s
	// degradation.
	if want("mds") {
		err := timed("mds-localization", func() error {
			sc := eval.Fig10().Scaled(opts.Scale)
			net, err := sc.Generate()
			if err != nil {
				return err
			}
			points, err := eval.RunLocalizationStudy(net, levels, detectCfg, seed(sc.Seed))
			if err != nil {
				return err
			}
			h, rows := eval.LocalizationRows(points)
			add("mds", "Localization quality: one-hop MDS frame error vs. ranging error", h, rows)
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Surface-tool applications (Sec. I's embedding / partition / routing).
	if want("apps") {
		err := timed("surface-apps", func() error {
			var reports []*eval.SurfaceToolsReport
			for _, sc := range AppsScenarios() {
				sc = sc.Scaled(opts.Scale)
				fmt.Fprintf(w, "running surface tools on %s...\n", sc.Name)
				rep, err := eval.RunSurfaceTools(sc, meshCfg, 6)
				if err != nil {
					return err
				}
				reports = append(reports, rep)
			}
			h, rows := eval.SurfaceToolsRows(reports)
			add("apps", "Surface applications: embedding, k-way partition, greedy routing (+recovery)", h, rows)
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Robustness: detection quality vs. message loss. Unbounded random
	// loss (no per-link cap), masked as far as the retransmission budget
	// allows — the degradation beyond it is the quantity of interest.
	if want("faults") {
		err := timed("fault-sweep", func() error {
			sc := eval.Fig1().Scaled(opts.Scale)
			fmt.Fprintf(w, "generating %s (%d nodes) for the loss sweep...\n",
				sc.Name, sc.SurfaceNodes+sc.InteriorNodes)
			net, err := sc.Generate()
			if err != nil {
				return err
			}
			lossRates := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}
			sweep, err := eng.FaultSweep(net, sc.Name, lossRates, 0, detectCfg, seed(sc.Seed))
			if err != nil {
				return err
			}
			h, rows := eval.FaultSweepRows(sweep)
			add("faults", "Robustness: detection quality vs. message loss ("+sc.Name+", exact ranging)", h, rows)
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Cross-detector comparison: every registered detector over the three
	// standard fixtures, classified against ground truth with
	// vocabulary-derived message/round/work totals.
	if want("detectors") {
		// The matrix runs every registered detector under one trace, so
		// the vocabulary check must admit their union of stages.
		sess.SetVocabStages(cli.AllDetectorVocabStages())
		err := timed("detector-matrix", func() error {
			scenarios := eval.StandardFixtures()
			for i := range scenarios {
				scenarios[i] = scenarios[i].Scaled(opts.Scale)
			}
			names := core.DetectorNames()
			fmt.Fprintf(w, "running %d detectors over %d fixtures...\n", len(names), len(scenarios))
			cells, err := eng.DetectorMatrix(scenarios, names, detectCfg)
			if err != nil {
				return err
			}
			h, rows := metrics.DetectorComparisonRows(cells)
			add("detectors", "Cross-detector comparison vs. ground-truth boundary (true coordinates)", h, rows)
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Ablations.
	if want("ablation") {
		err := timed("ablations", func() error {
			sc := eval.Fig1().Scaled(opts.Scale)
			net, err := sc.Generate()
			if err != nil {
				return err
			}
			rows20, err := eng.Ablations(net, 0.2, seed(sc.Seed))
			if err != nil {
				return err
			}
			h, rows := eval.AblationRows(rows20)
			add("ablation", "Ablations at 20% distance error ("+sc.Name+")", h, rows)
			return nil
		})
		if err != nil {
			return err
		}
	}

	for _, t := range tables {
		fmt.Fprintf(w, "\n== %s ==\n%s", t.title, eval.FormatTable(t.header, t.rows))
		if opts.CSV != "" {
			if err := writeCSV(opts.CSV, t); err != nil {
				return err
			}
		}
	}
	if opts.Out != "" {
		payload := make([]tableJSON, 0, len(tables))
		for _, t := range tables {
			payload = append(payload, tableJSON{Name: t.name, Title: t.title, Header: t.header, Rows: t.rows})
		}
		env := opts.Common.NewEnvelope("experiment", map[string]any{
			"run": opts.Run, "scale": opts.Scale, "k": opts.K, "async": opts.Async,
		}, payload)
		if err := cli.WriteEnvelope(opts.Out, env); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote results envelope to %s\n", opts.Out)
	}

	// Close the session before reporting: this stops the profiles,
	// flushes the trace, and fails the run if the written JSONL does not
	// validate against the schema.
	closed = true
	if err := sess.Close(); err != nil {
		return err
	}
	if opts.Trace != "" {
		fmt.Fprintf(w, "\ntrace: %d events (%d experiment spans, %d cell spans, %d detect spans) -> %s\n",
			sess.Events, sess.Summary.Spans(obs.StageExperiment),
			sess.Summary.Spans(obs.StageCell), sess.Summary.Spans(obs.StageDetect), opts.Trace)
	}
	fmt.Fprintf(w, "\ndone in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// AppsScenarios picks the deployments used for the surface-tools study:
// the smooth scenarios where the overlay mesh is meaningful.
func AppsScenarios() []eval.Scenario {
	return []eval.Scenario{eval.Fig6(), eval.Fig9(), eval.Fig10()}
}

func writeCSV(dir string, t table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, strings.ReplaceAll(t.name, "/", "_")+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return export.WriteCSV(f, t.header, t.rows)
}
