package analyze

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// recordTrace runs label propagation on a small path under a JSONL
// recorder and loads the result back — a real end-to-end trace for the
// analytics to chew on.
func recordTrace(t *testing.T) *Trace {
	t.Helper()
	g := graph.New(5)
	for i := 0; i+1 < 5; i++ {
		g.AddEdge(i, i+1)
	}
	member := make([]bool, 5)
	for i := range member {
		member[i] = true
	}
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	span := obs.Start(j, obs.StageDetect)
	if _, _, err := sim.LabelComponentsStats(g, member, sim.Probe{Obs: j, Stage: obs.StageGrouping}); err != nil {
		t.Fatal(err)
	}
	span.End()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConvergenceFromRealTrace(t *testing.T) {
	tr := recordTrace(t)
	curves := Convergence(tr.Events)
	if len(curves) != 1 || curves[0].Stage != obs.StageGrouping.String() {
		t.Fatalf("curves = %+v, want one grouping curve", curves)
	}
	pts := curves[0].Points
	if len(pts) == 0 {
		t.Fatal("empty curve")
	}
	if pts[0].Round != obs.InitRound {
		t.Errorf("first point round = %d, want init round %d", pts[0].Round, obs.InitRound)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Round <= pts[i-1].Round {
			t.Errorf("rounds not ascending: %d after %d", pts[i].Round, pts[i-1].Round)
		}
	}
	var sent, delivered int64
	for _, p := range pts {
		sent += p.Stats.Sent
		delivered += p.Stats.Delivered
	}
	if sent == 0 || sent != delivered {
		t.Errorf("curve totals sent=%d delivered=%d, want equal and nonzero", sent, delivered)
	}
}

func TestConvergenceSumsDuplicateRounds(t *testing.T) {
	mk := func(round int, sent int64) obs.TraceEvent {
		return obs.TraceEvent{Event: obs.Event{
			Kind: obs.KindRoundEnd, Stage: obs.StageIFF, Round: round,
			Stats: obs.RoundStats{Sent: sent},
		}}
	}
	curves := Convergence([]obs.TraceEvent{mk(0, 2), mk(1, 5), mk(0, 3)})
	if len(curves) != 1 || len(curves[0].Points) != 2 {
		t.Fatalf("curves = %+v", curves)
	}
	if got := curves[0].Points[0].Stats.Sent; got != 5 {
		t.Errorf("round 0 summed sent = %d, want 5", got)
	}
}

func TestFindAnomaliesCleanTrace(t *testing.T) {
	tr := recordTrace(t)
	if an := FindAnomalies(tr); len(an) != 0 {
		t.Errorf("clean trace reported anomalies: %+v", an)
	}
}

func TestFindAnomaliesNonQuiescence(t *testing.T) {
	tr := &Trace{Events: []obs.TraceEvent{{Event: obs.Event{
		Kind: obs.KindRoundEnd, Stage: obs.StageIFF, Round: 0,
		Stats: obs.RoundStats{Sent: 4, Delivered: 2, Dropped: 1},
	}}}}
	an := FindAnomalies(tr)
	if len(an) != 1 || an[0].Kind != AnomalyNonQuiescence {
		t.Fatalf("anomalies = %+v, want one non_quiescence", an)
	}
	if !strings.Contains(an[0].Detail, "1 message") {
		t.Errorf("detail %q does not name the in-flight count", an[0].Detail)
	}
}

func TestFindAnomaliesRetransmitExhaustion(t *testing.T) {
	sum := &obs.Metrics{}
	sum.Count(obs.StageIFF, obs.CtrMsgsAbandoned, 3)
	tr := &Trace{Summary: sum}
	an := FindAnomalies(tr)
	if len(an) != 1 || an[0].Kind != AnomalyRetransmitExhaustion {
		t.Fatalf("anomalies = %+v, want one retransmit_exhaustion", an)
	}
	if an[0].Stage != obs.StageIFF.String() {
		t.Errorf("anomaly stage = %q", an[0].Stage)
	}
}

func TestFindAnomaliesRescindOscillation(t *testing.T) {
	rescind := obs.TraceEvent{Event: obs.Event{
		Kind: obs.KindTransition, Stage: obs.StageIFF, Trans: obs.TransIFFRescind, Node: 7,
	}}
	claim := obs.TraceEvent{Event: obs.Event{
		Kind: obs.KindTransition, Stage: obs.StageUBF, Trans: obs.TransBoundaryClaim, Node: 7,
	}}
	freshRun := obs.TraceEvent{Event: obs.Event{Kind: obs.KindBegin, Stage: obs.StageDetect}}

	an := FindAnomalies(&Trace{Events: []obs.TraceEvent{rescind, claim}})
	if len(an) != 1 || an[0].Kind != AnomalyRescindOscillation || an[0].Node != 7 {
		t.Fatalf("anomalies = %+v, want one rescind_oscillation on node 7", an)
	}
	// A new detection run resets the slate: the same pair split across
	// runs — as in a sweep trace — is not an oscillation.
	an = FindAnomalies(&Trace{Events: []obs.TraceEvent{rescind, freshRun, claim}})
	if len(an) != 0 {
		t.Errorf("cross-run claim flagged as oscillation: %+v", an)
	}
}

func TestDiffTracesIdenticalAndDrifted(t *testing.T) {
	sum := func(msgs int64, rounds int) *obs.Metrics {
		m := &obs.Metrics{}
		m.Count(obs.StageIFF, obs.CtrMsgsSent, msgs)
		for r := 0; r < rounds; r++ {
			m.RoundEnd(obs.StageIFF, r, obs.RoundStats{})
		}
		for node := 0; node < 4; node++ {
			m.NodeTransition(obs.StageIFF, obs.TransBoundaryClaim, node, 0)
		}
		m.StageEnd(obs.StageIFF, "", 1000)
		return m
	}
	// Identical summaries diff clean even at zero tolerance, with wall
	// time ignored by default.
	rep := DiffTraces(sum(100, 7), sum(100, 7), Tolerances{WallFrac: -1})
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Fatalf("identical summaries regressed: %+v", regs)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings on identical summaries — diff is vacuous")
	}
	for _, f := range rep.Findings {
		if strings.HasPrefix(f.Metric, "wall_ns/") {
			t.Errorf("wall metric %q compared despite WallFrac < 0", f.Metric)
		}
	}

	// Message drift beyond tolerance and round drift beyond slack both
	// regress; drift within tolerance passes.
	rep = DiffTraces(sum(100, 7), sum(130, 9), Tolerances{CounterFrac: 0.2, RoundSlack: 1, WallFrac: -1})
	regressed := map[string]bool{}
	for _, f := range rep.Regressions() {
		regressed[f.Metric] = true
	}
	if !regressed["iff/msgs_sent"] {
		t.Error("30% counter drift above a 20% tolerance not flagged")
	}
	if !regressed["rounds/iff"] {
		t.Error("2-round drift above a 1-round slack not flagged")
	}
	rep = DiffTraces(sum(100, 7), sum(110, 8), Tolerances{CounterFrac: 0.2, RoundSlack: 1, WallFrac: -1})
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Errorf("in-tolerance drift regressed: %+v", regs)
	}

	// Improvement is still drift for a trace diff: same workload, so
	// fewer messages means the trace describes something else.
	rep = DiffTraces(sum(100, 7), sum(60, 7), Tolerances{CounterFrac: 0.2, RoundSlack: 1, WallFrac: -1})
	if len(rep.Regressions()) == 0 {
		t.Error("symmetric counter drift (decrease) not flagged")
	}
}
