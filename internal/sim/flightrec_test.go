package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// renderEvents flattens a Mem recording into a deterministic textual
// stream — everything the flight recorder captures except wall time,
// which is the only nondeterministic field.
func renderEvents(events []obs.Event) []string {
	var out []string
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindBegin:
			out = append(out, fmt.Sprintf("begin %s %s", ev.Stage, ev.Label))
		case obs.KindEnd:
			out = append(out, fmt.Sprintf("end %s %s", ev.Stage, ev.Label))
		case obs.KindCount:
			out = append(out, fmt.Sprintf("count %s %s %d", ev.Stage, ev.Counter, ev.Value))
		case obs.KindRoundBegin:
			out = append(out, fmt.Sprintf("round_begin %s r=%d", ev.Stage, ev.Round))
		case obs.KindRoundEnd:
			s := ev.Stats
			out = append(out, fmt.Sprintf("round_end %s r=%d sent=%d delivered=%d dropped=%d dup=%d delayed=%d active=%d",
				ev.Stage, ev.Round, s.Sent, s.Delivered, s.Dropped, s.Duplicated, s.Delayed, s.Active))
		case obs.KindTransition:
			out = append(out, fmt.Sprintf("trans %s %s node=%d value=%d", ev.Stage, ev.Trans, ev.Node, ev.Value))
		}
	}
	return out
}

// TestFlightRecorderGoldenSyncTrace pins the synchronous kernel's exact
// event stream for label propagation on a 4-node path: the minimum label
// cascades one hop per round, every adoption is a recorded transition,
// and the per-round accounting conserves (15 sent, 15 delivered). Any
// change to round bracketing, attribution, or transition emission shows
// up here as a diff against the golden literal.
func TestFlightRecorderGoldenSyncTrace(t *testing.T) {
	golden := []string{
		"round_begin grouping r=-1",
		"round_end grouping r=-1 sent=6 delivered=0 dropped=0 dup=0 delayed=0 active=4",
		"round_begin grouping r=0",
		"trans grouping label_adopt node=1 value=0",
		"trans grouping label_adopt node=2 value=1",
		"trans grouping label_adopt node=3 value=2",
		"round_end grouping r=0 sent=5 delivered=6 dropped=0 dup=0 delayed=0 active=4",
		"round_begin grouping r=1",
		"trans grouping label_adopt node=2 value=0",
		"trans grouping label_adopt node=3 value=1",
		"round_end grouping r=1 sent=3 delivered=5 dropped=0 dup=0 delayed=0 active=4",
		"round_begin grouping r=2",
		"trans grouping label_adopt node=3 value=0",
		"round_end grouping r=2 sent=1 delivered=3 dropped=0 dup=0 delayed=0 active=3",
		"round_begin grouping r=3",
		"round_end grouping r=3 sent=0 delivered=1 dropped=0 dup=0 delayed=0 active=1",
		"count grouping flood_rounds 4",
		"count grouping msgs_sent 15",
		"count grouping msgs_delivered 15",
	}
	run := func() []string {
		m := &obs.Mem{}
		label, _, err := LabelComponentsStats(pathGraph(4), allTrue(4), Probe{Obs: m, Stage: obs.StageGrouping})
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range label {
			if l != 0 {
				t.Fatalf("label[%d] = %d, want 0", i, l)
			}
		}
		return renderEvents(m.Events())
	}
	got := run()
	if !reflect.DeepEqual(got, golden) {
		t.Errorf("event stream diverged from golden:\ngot:\n%s\nwant:\n%s",
			joinLines(got), joinLines(golden))
	}
	if again := run(); !reflect.DeepEqual(got, again) {
		t.Error("two identical runs produced different event streams")
	}
}

func joinLines(lines []string) string {
	out := ""
	for _, l := range lines {
		out += "  " + l + "\n"
	}
	return out
}

// TestFlightRecorderDeterministicUnderFaults: with a seeded fault plan the
// recorded stream — drops, duplicates, delays, retransmissions and all —
// must still be identical run to run, on both kernels.
func TestFlightRecorderDeterministicUnderFaults(t *testing.T) {
	const n = 12
	g := ringGraph(n)
	member := allTrue(n)
	record := func(async bool) []string {
		m := &obs.Mem{}
		pr := Probe{Obs: m, Stage: obs.StageIFF}
		var err error
		if async {
			_, _, err = AsyncReliableFloodCount(g, member, 2, 9, lossyPlan(17, n), ReliableOptions{}, pr)
		} else {
			_, _, err = ReliableFloodCount(g, member, 2, lossyPlan(17, n), ReliableOptions{}, pr)
		}
		if err != nil {
			t.Fatal(err)
		}
		return renderEvents(m.Events())
	}
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			a, b := record(async), record(async)
			if len(a) == 0 {
				t.Fatal("no events recorded")
			}
			if !reflect.DeepEqual(a, b) {
				t.Error("same seed produced different event streams")
			}
		})
	}
}

// TestFlightRecorderConservation: summed over a quiesced run's rounds,
// every copy presented to the network was delivered or dropped —
// sent + duplicated = delivered + dropped — under perfect delivery and
// under faults, on both kernels.
func TestFlightRecorderConservation(t *testing.T) {
	const n = 14
	g := ringGraph(n)
	member := allTrue(n)
	cases := map[string]func(pr Probe) error{
		"sync-perfect": func(pr Probe) error {
			_, _, err := FloodCountStats(g, member, 3, pr)
			return err
		},
		"sync-faulty": func(pr Probe) error {
			_, _, err := ReliableFloodCount(g, member, 2, lossyPlan(5, n), ReliableOptions{}, pr)
			return err
		},
		"async-perfect": func(pr Probe) error {
			_, _, err := AsyncLabelComponents(g, member, 11, pr)
			return err
		},
		"async-faulty": func(pr Probe) error {
			_, _, err := AsyncReliableLabelComponents(g, member, 11, lossyPlan(5, n), ReliableOptions{}, pr)
			return err
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			m := &obs.Mem{}
			if err := run(Probe{Obs: m, Stage: obs.StageIFF}); err != nil {
				t.Fatal(err)
			}
			var total obs.RoundStats
			rounds := 0
			for _, ev := range m.Events() {
				if ev.Kind == obs.KindRoundEnd {
					total.Add(ev.Stats)
					rounds++
				}
			}
			if rounds == 0 {
				t.Fatal("no rounds recorded")
			}
			if left := total.Sent + total.Duplicated - total.Delivered - total.Dropped; left != 0 {
				t.Errorf("conservation violated: %d message(s) unaccounted (sent %d, dup %d, delivered %d, dropped %d)",
					left, total.Sent, total.Duplicated, total.Delivered, total.Dropped)
			}
			if m.Rounds(obs.StageIFF) != rounds {
				t.Errorf("Mem.Rounds = %d, want %d", m.Rounds(obs.StageIFF), rounds)
			}
		})
	}
}

// TestFlightRecorderOnOffIdentity: recording must never change what a
// protocol computes. Every primitive's outputs and statistics are
// reflect.DeepEqual between an unobserved run and a recorded one.
func TestFlightRecorderOnOffIdentity(t *testing.T) {
	const n = 12
	g := ringGraph(n)
	member := allTrue(n)
	member[3] = false
	type outcome struct {
		Vals []int
		Res  any
		Err  error
	}
	cases := map[string]func(pr Probe) outcome{
		"flood": func(pr Probe) outcome {
			v, r, err := FloodCountStats(g, member, 2, pr)
			return outcome{v, r, err}
		},
		"label": func(pr Probe) outcome {
			v, r, err := LabelComponentsStats(g, member, pr)
			return outcome{v, r, err}
		},
		"async-flood": func(pr Probe) outcome {
			v, r, err := AsyncFloodCount(g, member, 2, 7, pr)
			return outcome{v, r, err}
		},
		"async-label": func(pr Probe) outcome {
			v, r, err := AsyncLabelComponents(g, member, 7, pr)
			return outcome{v, r, err}
		},
		"rel-flood": func(pr Probe) outcome {
			v, r, err := ReliableFloodCount(g, member, 2, lossyPlan(3, n), ReliableOptions{}, pr)
			return outcome{v, r, err}
		},
		"rel-label": func(pr Probe) outcome {
			v, r, err := ReliableLabelComponents(g, member, lossyPlan(3, n), ReliableOptions{}, pr)
			return outcome{v, r, err}
		},
		"async-rel-flood": func(pr Probe) outcome {
			v, r, err := AsyncReliableFloodCount(g, member, 2, 7, lossyPlan(3, n), ReliableOptions{}, pr)
			return outcome{v, r, err}
		},
		"async-rel-label": func(pr Probe) outcome {
			v, r, err := AsyncReliableLabelComponents(g, member, 7, lossyPlan(3, n), ReliableOptions{}, pr)
			return outcome{v, r, err}
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			plain := run(Probe{})
			m := &obs.Mem{}
			recorded := run(Probe{Obs: m, Stage: obs.StageIFF})
			if !reflect.DeepEqual(plain, recorded) {
				t.Errorf("recorded run diverged from unobserved run:\nplain:    %+v\nrecorded: %+v", plain, recorded)
			}
			if len(m.Events()) == 0 {
				t.Error("recorder captured nothing — identity check is vacuous")
			}
		})
	}
}

// noopObs is an observer that records nothing: with it installed the
// kernel takes the full recording branch (recObs true) while the sink
// itself costs nothing, isolating the recorder's own overhead.
type noopObs struct{}

func (noopObs) StageBegin(obs.Stage, string)                         {}
func (noopObs) StageEnd(obs.Stage, string, int64)                    {}
func (noopObs) Count(obs.Stage, obs.Counter, int64)                  {}
func (noopObs) RoundBegin(obs.Stage, int)                            {}
func (noopObs) RoundEnd(obs.Stage, int, obs.RoundStats)              {}
func (noopObs) NodeTransition(obs.Stage, obs.Transition, int, int64) {}

// TestFlightRecorderRoundLoopZeroAlloc: the round loop's recorder path
// must not allocate. The unobserved run is the baseline (kernel-internal
// maps and inboxes); the recorded run — per-round stats, round
// bracketing, stamp bookkeeping — must allocate exactly as much.
func TestFlightRecorderRoundLoopZeroAlloc(t *testing.T) {
	const n = 8
	g := pathGraph(n)
	member := allTrue(n)
	run := func(pr Probe) {
		if _, _, err := FloodCountStats(g, member, 2, pr); err != nil {
			t.Fatal(err)
		}
	}
	base := testing.AllocsPerRun(50, func() { run(Probe{}) })
	rec := testing.AllocsPerRun(50, func() { run(Probe{Obs: noopObs{}, Stage: obs.StageIFF}) })
	if extra := rec - base; extra != 0 {
		t.Errorf("recorder path allocates %.1f extra times per run (baseline %.1f, recorded %.1f)",
			extra, base, rec)
	}
}

// TestFaultStatsEmitObs: EmitObs mirrors every message counter under the
// given stage — the three drop causes folded into msgs_dropped — stays
// silent on zero fields, and is nil-safe.
func TestFaultStatsEmitObs(t *testing.T) {
	var m obs.Metrics
	FaultStats{
		Attempts: 100, Delivered: 80, Dropped: 12, CrashDrops: 5, PartitionDrops: 3,
		Duplicated: 6, Retransmits: 25, Acks: 70, Abandoned: 2,
	}.EmitObs(&m, obs.StageIFF)
	sparse := FaultStats{Attempts: 10, Delivered: 10, Acks: 9}
	sparse.EmitObs(&m, obs.StageGrouping)
	want := map[string]int64{
		"iff/msgs_sent": 100, "iff/msgs_delivered": 80, "iff/msgs_dropped": 20,
		"iff/msgs_duplicated": 6, "iff/msgs_retransmitted": 25, "iff/msgs_acked": 70,
		"iff/msgs_abandoned": 2,
		"grouping/msgs_sent": 10, "grouping/msgs_delivered": 10, "grouping/msgs_acked": 9,
	}
	if got := m.Totals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("EmitObs totals %v, want %v", got, want)
	}

	mem := &obs.Mem{}
	sparse.EmitObs(mem, obs.StageGrouping)
	if n := len(mem.Events()); n != 3 {
		t.Fatalf("sparse stats emitted %d events, want 3 (zero fields stay silent)", n)
	}
	sparse.EmitObs(nil, obs.StageGrouping)
}
