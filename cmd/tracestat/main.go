// Command tracestat analyzes flight-recorder traces and FTDC metric
// captures: convergence curves, anomaly detection, and tolerance-gated
// diffs (internal/obs/analyze).
//
// Usage:
//
//	tracestat -trace run.jsonl                     # validate + curves + anomalies
//	tracestat -trace new.jsonl -against old.jsonl  # diff two traces
//	tracestat -ftdc capdir                         # decode an FTDC capture ring
//	tracestat -ftdc new_dir -against old_dir       # diff two captures
//
// -ftdc decodes the binary delta-encoded metrics ring that boundaryd and
// the CLIs write under their -ftdc flag: capture stats, the final
// sample's counter totals, and per-stage latency quantiles.
//
// Exit status: 0 when clean, 1 when the diff found a regression (or, with
// -fail-on-anomaly, when the trace shows an anomaly), 2 on usage or I/O
// errors. -out writes the full report as a JSON envelope (internal/cli
// framing, tool "tracestat").
//
// This command reads traces, so it registers its own flags instead of the
// shared cli.Common block (whose -trace means "write a trace").
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/ftdc"
)

// options collects one invocation's parameters.
type options struct {
	Trace   string
	Against string
	Out     string

	FTDC string

	TolCount float64
	TolRound int
	TolWall  float64

	FailOnAnomaly bool
}

func registerFlags(fs *flag.FlagSet, opts *options) {
	fs.StringVar(&opts.Trace, "trace", "", "JSONL flight-recorder trace to analyze (input)")
	fs.StringVar(&opts.Against, "against", "", "second trace or capture to diff against (same kind as the first input)")
	fs.StringVar(&opts.Out, "out", "", "write the report as a JSON envelope to this path")
	fs.StringVar(&opts.FTDC, "ftdc", "", "FTDC capture directory to analyze (input; -against diffs a second directory)")
	fs.Float64Var(&opts.TolCount, "tol-count", 0, "trace diff: allowed fractional drift per counter total (0 = exact)")
	fs.IntVar(&opts.TolRound, "tol-rounds", 0, "trace diff: allowed absolute drift per stage round count")
	fs.Float64Var(&opts.TolWall, "tol-wall", -1, "trace diff: allowed fractional wall-time drift per stage (negative = ignore wall time)")
	fs.BoolVar(&opts.FailOnAnomaly, "fail-on-anomaly", false, "exit nonzero when a single-trace analysis finds anomalies")
}

// errFindings marks a completed analysis whose verdict is "regressed":
// main exits 1 instead of the usage/I/O status 2.
var errFindings = errors.New("regression detected")

func main() {
	var opts options
	registerFlags(flag.CommandLine, &opts)
	flag.Parse()

	err := run(os.Stdout, opts)
	switch {
	case err == nil:
	case errors.Is(err, errFindings):
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(2)
	}
}

// report is the envelope payload: whichever sections the mode produced.
type report struct {
	Mode      string            `json:"mode"`
	Curves    []analyze.Curve   `json:"curves,omitempty"`
	Anomalies []analyze.Anomaly `json:"anomalies,omitempty"`
	Findings  []analyze.Finding `json:"findings,omitempty"`
	FTDC      *ftdcReport       `json:"ftdc,omitempty"`
}

// ftdcReport is the -ftdc analysis payload: capture stats plus the final
// sample's counter totals and latency quantiles.
type ftdcReport struct {
	ftdc.DirStats
	Counters  map[string]int64            `json:"counters,omitempty"`
	Latencies map[string]obs.LatencyStats `json:"latencies,omitempty"`
}

func run(w io.Writer, opts options) error {
	switch {
	case opts.Trace != "" && opts.FTDC != "":
		return fmt.Errorf("pass exactly one of -trace, -ftdc")
	case opts.FTDC != "" && opts.Against == "":
		return analyzeFTDC(w, opts)
	case opts.FTDC != "":
		return diffFTDC(w, opts)
	case opts.Trace != "" && opts.Against == "":
		return analyzeTrace(w, opts)
	case opts.Trace != "":
		return diffTraces(w, opts)
	default:
		return fmt.Errorf("nothing to do: pass -trace or -ftdc (see -h)")
	}
}

func loadTrace(path string) (*analyze.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := analyze.Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// writeReport emits the optional JSON envelope. Its params name the
// inputs of the mode that ran: the trace or the FTDC capture, and what
// it was diffed against.
func writeReport(opts options, rep report) error {
	if opts.Out == "" {
		return nil
	}
	params := map[string]any{"trace": opts.Trace, "against": opts.Against}
	if opts.FTDC != "" {
		params = map[string]any{"ftdc": opts.FTDC, "against": opts.Against}
	}
	return cli.WriteEnvelope(opts.Out, cli.Envelope{Tool: "tracestat", Params: params, Data: rep})
}

// analyzeTrace is the single-trace mode: validate, print convergence
// curves and anomalies.
func analyzeTrace(w io.Writer, opts options) error {
	tr, err := loadTrace(opts.Trace)
	if err != nil {
		return err
	}
	curves := analyze.Convergence(tr.Events)
	anomalies := analyze.FindAnomalies(tr)

	_, rounds, _ := tr.Summary.Tallies()
	fmt.Fprintf(w, "%s: %d events, %d stages with rounds, %d transitions\n",
		opts.Trace, len(tr.Events), len(rounds), totalTransitions(tr.Summary))
	for _, c := range curves {
		fmt.Fprintf(w, "\nconvergence %s (%d rounds):\n", c.Stage, len(c.Points))
		fmt.Fprintf(w, "  %7s %9s %10s %9s %8s %8s %7s\n", "round", "sent", "delivered", "dropped", "dup", "delayed", "active")
		for _, p := range c.Points {
			fmt.Fprintf(w, "  %7d %9d %10d %9d %8d %8d %7d\n", p.Round,
				p.Stats.Sent, p.Stats.Delivered, p.Stats.Dropped,
				p.Stats.Duplicated, p.Stats.Delayed, p.Stats.Active)
		}
	}
	if len(anomalies) == 0 {
		fmt.Fprintf(w, "\nno anomalies\n")
	} else {
		fmt.Fprintf(w, "\nanomalies (%d):\n", len(anomalies))
		for _, a := range anomalies {
			fmt.Fprintf(w, "  [%s] %s\n", a.Kind, a.Detail)
		}
	}
	if err := writeReport(opts, report{Mode: "trace", Curves: curves, Anomalies: anomalies}); err != nil {
		return err
	}
	if opts.FailOnAnomaly && len(anomalies) > 0 {
		return fmt.Errorf("%w: %d anomaly(ies)", errFindings, len(anomalies))
	}
	return nil
}

func totalTransitions(sum *obs.Metrics) int {
	n := 0
	for t := obs.Transition(1); t.String() != "trans?"; t++ {
		n += sum.Transitions(t)
	}
	return n
}

// analyzeFTDC decodes a capture directory: capture stats, the final
// sample's counter totals, and per-stage latency quantiles.
func analyzeFTDC(w io.Writer, opts options) error {
	final, stats, err := readFinal(opts.FTDC)
	if err != nil {
		return err
	}
	counters := final.Totals()
	fmt.Fprintf(w, "%s: %d samples in %d segments, %d schema changes\n",
		opts.FTDC, stats.Samples, stats.Segments, stats.SchemaChanges)

	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		fmt.Fprintf(w, "\ncounters (final sample):\n")
		for _, k := range keys {
			fmt.Fprintf(w, "  %-36s %14d\n", k, counters[k])
		}
	}
	lats := final.LatencySummaries()
	stages := make([]string, 0, len(lats))
	for st := range lats {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	if len(stages) > 0 {
		fmt.Fprintf(w, "\nlatency (final sample):\n")
		fmt.Fprintf(w, "  %-14s %8s %12s %12s %12s %12s\n", "stage", "spans", "p50", "p95", "p99", "max")
		for _, st := range stages {
			stat := lats[st]
			fmt.Fprintf(w, "  %-14s %8d %12s %12s %12s %12s\n", st, stat.Count,
				time.Duration(stat.P50NS), time.Duration(stat.P95NS),
				time.Duration(stat.P99NS), time.Duration(stat.MaxNS))
		}
	}
	return writeReport(opts, report{Mode: "ftdc", FTDC: &ftdcReport{DirStats: stats, Counters: counters, Latencies: lats}})
}

// readFinal decodes a capture directory and loads its final sample — the
// run's cumulative totals — into a Metrics.
func readFinal(dir string) (*obs.Metrics, ftdc.DirStats, error) {
	samples, stats, err := ftdc.ReadDir(dir)
	if err != nil {
		return nil, stats, err
	}
	if len(samples) == 0 {
		return nil, stats, fmt.Errorf("%s: capture holds no samples", dir)
	}
	m := &obs.Metrics{}
	m.Load(samples[len(samples)-1].Metrics)
	return m, stats, nil
}

// diffFTDC compares -against (old capture) to -ftdc (new capture) by
// loading both final samples and reusing the trace diff tolerances.
func diffFTDC(w io.Writer, opts options) error {
	oldM, _, err := readFinal(opts.Against)
	if err != nil {
		return err
	}
	newM, _, err := readFinal(opts.FTDC)
	if err != nil {
		return err
	}
	rep := analyze.DiffTraces(oldM, newM,
		analyze.Tolerances{
			CounterFrac: opts.TolCount,
			RoundSlack:  opts.TolRound,
			WallFrac:    opts.TolWall,
		})
	return finishDiff(w, opts, "ftdc-diff", rep,
		fmt.Sprintf("ftdc diff %s -> %s", opts.Against, opts.FTDC))
}

// diffTraces compares -against (old) to -trace (new).
func diffTraces(w io.Writer, opts options) error {
	oldTr, err := loadTrace(opts.Against)
	if err != nil {
		return err
	}
	newTr, err := loadTrace(opts.Trace)
	if err != nil {
		return err
	}
	rep := analyze.DiffTraces(oldTr.Summary, newTr.Summary, analyze.Tolerances{
		CounterFrac: opts.TolCount,
		RoundSlack:  opts.TolRound,
		WallFrac:    opts.TolWall,
	})
	return finishDiff(w, opts, "trace-diff", rep,
		fmt.Sprintf("trace diff %s -> %s", opts.Against, opts.Trace))
}

// finishDiff renders a diff report, writes the envelope, and converts
// regressions into the exit-1 sentinel.
func finishDiff(w io.Writer, opts options, mode string, rep analyze.Report, header string) error {
	fmt.Fprintln(w, header)
	for _, f := range rep.Findings {
		mark := "ok  "
		if f.Regressed {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  %s %-32s old=%.6g new=%.6g delta=%+.6g (allowed %.6g)\n",
			mark, f.Metric, f.Old, f.New, f.Delta, f.Allowed)
	}
	regs := rep.Regressions()
	if len(regs) == 0 {
		fmt.Fprintf(w, "no regressions (%d metrics compared)\n", len(rep.Findings))
	} else {
		fmt.Fprintf(w, "%d regression(s) out of %d metrics\n", len(regs), len(rep.Findings))
	}
	if err := writeReport(opts, report{Mode: mode, Findings: rep.Findings}); err != nil {
		return err
	}
	if len(regs) > 0 {
		return fmt.Errorf("%w: %d metric(s) out of tolerance", errFindings, len(regs))
	}
	return nil
}
