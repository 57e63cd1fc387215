// Package analyze turns flight-recorder traces (internal/obs JSONL) into
// convergence curves, anomaly reports, and tolerance-gated diffs — the
// read side of the repository's observability layer, behind
// cmd/tracestat.
//
// The paper's correctness story is a convergence story: UBF claims must
// survive IFF's TTL-bounded flood, grouping floods must quiesce, and the
// hardened protocols must stay within their retransmit budgets. A trace
// records those dynamics round by round; this package asks the three
// questions that matter of it — did it converge (Convergence), did
// anything pathological happen (FindAnomalies), and did it change since
// last time (DiffTraces).
package analyze

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/obs"
)

// Trace is one parsed and validated JSONL trace.
type Trace struct {
	// Events holds every line in wire (seq) order.
	Events []obs.TraceEvent
	// Summary is the trace's aggregate roll-up: every event replayed
	// into a Metrics.
	Summary *obs.Metrics
}

// Load parses and validates a JSONL trace.
func Load(r io.Reader) (*Trace, error) {
	events, sum, err := obs.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	return &Trace{Events: events, Summary: sum}, nil
}

// RoundPoint is one round of a convergence curve.
type RoundPoint struct {
	Round int            `json:"round"`
	Stats obs.RoundStats `json:"stats"`
}

// Curve is one stage's round-resolved convergence history: frontier size
// (Stats.Active) and message volume (Stats.Sent/Delivered) per round.
type Curve struct {
	Stage  string       `json:"stage"`
	Points []RoundPoint `json:"points"`
}

// Convergence folds a trace's round events into per-stage curves. Rounds
// recorded more than once under a stage (interleaved sweep cells, or a
// sync and an async leg sharing an observer) are summed. Stages follow
// the pipeline order, rounds ascend.
func Convergence(events []obs.TraceEvent) []Curve {
	type key struct {
		stage obs.Stage
		round int
	}
	acc := make(map[key]obs.RoundStats)
	stages := make(map[obs.Stage]bool)
	for _, ev := range events {
		if ev.Kind != obs.KindRoundEnd {
			continue
		}
		k := key{ev.Stage, ev.Round}
		rs := acc[k]
		rs.Add(ev.Stats)
		acc[k] = rs
		stages[ev.Stage] = true
	}
	var order []obs.Stage
	for s := range stages {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	curves := make([]Curve, 0, len(order))
	for _, s := range order {
		var points []RoundPoint
		for k, rs := range acc {
			if k.stage == s {
				points = append(points, RoundPoint{Round: k.round, Stats: rs})
			}
		}
		sort.Slice(points, func(i, j int) bool { return points[i].Round < points[j].Round })
		curves = append(curves, Curve{Stage: s.String(), Points: points})
	}
	return curves
}

// Anomaly kinds reported by FindAnomalies.
const (
	// AnomalyNonQuiescence: a stage's rounds ended with messages still in
	// flight — sent+duplicated exceeds delivered+dropped.
	AnomalyNonQuiescence = "non_quiescence"
	// AnomalyRetransmitExhaustion: a hardened protocol abandoned packets
	// after its retransmit budget.
	AnomalyRetransmitExhaustion = "retransmit_exhaustion"
	// AnomalyRescindOscillation: a node claimed boundary status after IFF
	// had already rescinded it within the same detection run — the
	// claim/rescind cycle the paper's one-pass pipeline should never
	// produce.
	AnomalyRescindOscillation = "rescind_oscillation"
)

// Anomaly is one detected pathology.
type Anomaly struct {
	Kind   string `json:"kind"`
	Stage  string `json:"stage,omitempty"`
	Node   int    `json:"node,omitempty"`
	Detail string `json:"detail"`
}

// FindAnomalies scans a validated trace for the three pathologies the
// flight recorder exists to expose.
func FindAnomalies(tr *Trace) []Anomaly {
	var out []Anomaly

	// Conservation per stage: at quiescence every copy presented to the
	// network (sent + injected duplicates) was delivered or dropped.
	inFlight := make(map[obs.Stage]obs.RoundStats)
	var stages []obs.Stage
	for _, ev := range tr.Events {
		if ev.Kind != obs.KindRoundEnd {
			continue
		}
		if _, seen := inFlight[ev.Stage]; !seen {
			stages = append(stages, ev.Stage)
		}
		rs := inFlight[ev.Stage]
		rs.Add(ev.Stats)
		inFlight[ev.Stage] = rs
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i] < stages[j] })
	for _, s := range stages {
		rs := inFlight[s]
		if left := rs.Sent + rs.Duplicated - rs.Delivered - rs.Dropped; left > 0 {
			out = append(out, Anomaly{
				Kind:  AnomalyNonQuiescence,
				Stage: s.String(),
				Detail: fmt.Sprintf("%d message(s) still in flight after the last recorded round (sent %d + dup %d, delivered %d, dropped %d)",
					left, rs.Sent, rs.Duplicated, rs.Delivered, rs.Dropped),
			})
		}
	}

	// Budget exhaustion straight off the aggregate counters.
	for s := obs.Stage(1); tr.Summary != nil && s.String() != "stage?"; s++ {
		if n := tr.Summary.Total(s, obs.CtrMsgsAbandoned); n > 0 {
			out = append(out, Anomaly{
				Kind:   AnomalyRetransmitExhaustion,
				Stage:  s.String(),
				Detail: fmt.Sprintf("%d packet(s) abandoned after the retransmit budget", n),
			})
		}
	}

	// Claim-after-rescind per node, scoped to one detection run: a fresh
	// StageDetect span resets the slate, so sweep traces with repeated
	// node IDs across cells don't false-positive.
	rescinded := make(map[int]bool)
	for _, ev := range tr.Events {
		switch {
		case ev.Kind == obs.KindBegin && ev.Stage == obs.StageDetect:
			clear(rescinded)
		case ev.Kind != obs.KindTransition:
		case ev.Trans == obs.TransIFFRescind:
			rescinded[ev.Node] = true
		case ev.Trans == obs.TransBoundaryClaim && rescinded[ev.Node]:
			out = append(out, Anomaly{
				Kind:   AnomalyRescindOscillation,
				Stage:  ev.Stage.String(),
				Node:   ev.Node,
				Detail: fmt.Sprintf("node %d re-claimed boundary status after an IFF rescind in the same detection run", ev.Node),
			})
		}
	}
	return out
}

// Finding is one compared metric in a diff report.
type Finding struct {
	// Metric names what was compared: an obs.Tally name such as
	// "iff/msgs_sent" or "wall_ns/ubf".
	Metric string `json:"metric"`
	// Old and New are the two sides' values; Delta is New-Old.
	Old   float64 `json:"old"`
	New   float64 `json:"new"`
	Delta float64 `json:"delta"`
	// Allowed is the tolerance the delta was judged against, in the
	// metric's unit (absolute for rounds, fractional otherwise).
	Allowed float64 `json:"allowed"`
	// Regressed marks findings outside tolerance.
	Regressed bool `json:"regressed"`
}

// Report is a diff's full finding list, regressions and passes alike.
type Report struct {
	Findings []Finding `json:"findings"`
}

// Regressions filters the report to out-of-tolerance findings.
func (r Report) Regressions() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Regressed {
			out = append(out, f)
		}
	}
	return out
}

// Tolerances bounds acceptable drift between two traces.
type Tolerances struct {
	// CounterFrac is the allowed fractional change of every (stage,
	// counter) total and transition tally. Zero demands exact equality.
	CounterFrac float64
	// RoundSlack is the allowed absolute change in per-stage round
	// counts.
	RoundSlack int
	// WallFrac is the allowed fractional change of per-stage wall time.
	// Negative disables wall comparison — the right default when the two
	// traces come from different machines or load conditions.
	WallFrac float64
}

// fracDelta measures a change relative to the old magnitude, with a floor
// of 1 so a 0→small drift doesn't divide by zero.
func fracDelta(oldV, newV float64) float64 {
	base := math.Abs(oldV)
	if base < 1 {
		base = 1
	}
	return math.Abs(newV-oldV) / base
}

// DiffTraces compares two trace aggregates metric by metric (see
// obs.Metrics.Tallies): counter totals and transition tallies under
// CounterFrac, per-stage round counts under RoundSlack, per-stage wall
// time under WallFrac. Any drift beyond tolerance — in either direction
// — is a regression: the traces are expected to describe the same
// workload.
func DiffTraces(a, b *obs.Metrics, tol Tolerances) Report {
	var rep Report
	ac, ar, aw := a.Tallies()
	bc, br, bw := b.Tallies()
	rep.compare(ac, bc, tol.CounterFrac, func(o, n float64) bool {
		return fracDelta(o, n) > tol.CounterFrac
	})
	slack := float64(tol.RoundSlack)
	rep.compare(ar, br, slack, func(o, n float64) bool {
		return math.Abs(n-o) > slack
	})
	if tol.WallFrac >= 0 {
		rep.compare(aw, bw, tol.WallFrac, func(o, n float64) bool {
			return fracDelta(o, n) > tol.WallFrac
		})
	}
	return rep
}

// compare appends one finding per tally named on either side, ordered by
// stage and then name; a tally absent from one side reads as zero there.
func (r *Report) compare(oldT, newT []obs.Tally, allowed float64, regressed func(oldV, newV float64) bool) {
	type row struct {
		t obs.Tally
		v [2]float64 // old, new
	}
	var rows []row
	at := make(map[string]int)
	for side, ts := range [2][]obs.Tally{oldT, newT} {
		for _, t := range ts {
			i, ok := at[t.Name]
			if !ok {
				i = len(rows)
				at[t.Name] = i
				rows = append(rows, row{t: t})
			}
			rows[i].v[side] = float64(t.Value)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].t.Stage != rows[j].t.Stage {
			return rows[i].t.Stage < rows[j].t.Stage
		}
		return rows[i].t.Name < rows[j].t.Name
	})
	for _, rw := range rows {
		oldV, newV := rw.v[0], rw.v[1]
		r.Findings = append(r.Findings, Finding{
			Metric: rw.t.Name, Old: oldV, New: newV, Delta: newV - oldV,
			Allowed: allowed, Regressed: regressed(oldV, newV),
		})
	}
}
