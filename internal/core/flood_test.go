package core

// Differential suite for the direct flood evaluators of flood.go, with the
// sim kernels as the oracle: same counts and labels, same Rounds and
// Messages, and the same observer event stream (span wall times zeroed).

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// observedStream runs fn under a span of stage on a fresh Mem sink and
// returns the recorded events with the span wall time zeroed.
func observedStream(stage obs.Stage, fn func(pr sim.Probe) error) ([]obs.Event, error) {
	m := &obs.Mem{}
	span := obs.Start(m, stage)
	err := fn(sim.Probe{Obs: m, Stage: stage})
	span.End()
	events := m.Events()
	for i := range events {
		events[i].WallNS = 0
	}
	return events, err
}

// diffDirectFlood runs IFF and grouping over (g, member) on the sim kernels
// and on the direct evaluators, and describes the first disagreement.
func diffDirectFlood(g *graph.Graph, member []bool, ttl, workers int) error {
	var wantCounts, gotCounts []int
	var wantIFF, gotIFF sim.Result
	wantEv, err := observedStream(obs.StageIFF, func(pr sim.Probe) (err error) {
		wantCounts, wantIFF, err = sim.FloodCountStats(g, member, ttl, pr)
		return err
	})
	if err != nil {
		return fmt.Errorf("sim IFF: %w", err)
	}
	gotEv, err := observedStream(obs.StageIFF, func(pr sim.Probe) (err error) {
		gotCounts, gotIFF, err = floodCount(context.Background(), pr, g, member, ttl, workers)
		return err
	})
	if err != nil {
		return fmt.Errorf("direct IFF: %w", err)
	}
	if !reflect.DeepEqual(gotCounts, wantCounts) {
		return fmt.Errorf("IFF counts differ:\n got  %v\n want %v", gotCounts, wantCounts)
	}
	if gotIFF != wantIFF {
		return fmt.Errorf("IFF stats %+v, want %+v", gotIFF, wantIFF)
	}
	if err := diffEvents("IFF", gotEv, wantEv); err != nil {
		return err
	}
	// The unobserved direct run must agree with the observed one.
	plain, plainRes, err := floodCount(context.Background(), sim.Probe{}, g, member, ttl, workers)
	if err != nil || !reflect.DeepEqual(plain, gotCounts) || plainRes != gotIFF {
		return fmt.Errorf("unobserved direct IFF differs (err %v, stats %+v)", err, plainRes)
	}

	var wantLabel, gotLabel []int
	var wantGroup, gotGroup sim.Result
	wantEv, err = observedStream(obs.StageGrouping, func(pr sim.Probe) (err error) {
		wantLabel, wantGroup, err = sim.LabelComponentsStats(g, member, pr)
		return err
	})
	if err != nil {
		return fmt.Errorf("sim grouping: %w", err)
	}
	gotEv, err = observedStream(obs.StageGrouping, func(pr sim.Probe) (err error) {
		gotLabel, gotGroup, err = labelComponents(pr, g, member)
		return err
	})
	if err != nil {
		return fmt.Errorf("direct grouping: %w", err)
	}
	if !reflect.DeepEqual(gotLabel, wantLabel) {
		return fmt.Errorf("labels differ:\n got  %v\n want %v", gotLabel, wantLabel)
	}
	if gotGroup != wantGroup {
		return fmt.Errorf("grouping stats %+v, want %+v", gotGroup, wantGroup)
	}
	if err := diffEvents("grouping", gotEv, wantEv); err != nil {
		return err
	}
	plainLabel, plainGroup, err := labelComponents(sim.Probe{}, g, member)
	if err != nil || !reflect.DeepEqual(plainLabel, gotLabel) || plainGroup != gotGroup {
		return fmt.Errorf("unobserved direct grouping differs (err %v, stats %+v)", err, plainGroup)
	}
	return nil
}

func diffEvents(phase string, got, want []obs.Event) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("%s event %d: got %+v, want %+v", phase, i, got[i], want[i])
		}
	}
	return fmt.Errorf("%s: %d events, want %d", phase, len(got), len(want))
}

// TestDirectFloodMatchesSim diffs the direct evaluators against the sim
// kernels over the sphere/cube-hole/torus worlds × TTL {0,1,3,5} × member
// masks: the world's real UBF candidate set plus seeded random masks from
// sparse (mostly isolated fragments) to dense (one giant component).
func TestDirectFloodMatchesSim(t *testing.T) {
	for _, w := range metamorphicWorlds(t) {
		res, err := Detect(w.net, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		masks := map[string][]bool{"ubf": res.UBF}
		for _, p := range []float64{0.05, 0.3, 0.7} {
			mask := make([]bool, w.net.Len())
			for i := range mask {
				mask[i] = rng.Float64() < p
			}
			masks[fmt.Sprintf("random-%.2f", p)] = mask
		}
		for name, mask := range masks {
			for _, ttl := range []int{0, 1, 3, 5} {
				for _, workers := range []int{1, 4} {
					if err := diffDirectFlood(w.net.G, mask, ttl, workers); err != nil {
						t.Fatalf("%s/%s/ttl=%d/workers=%d: %v", w.name, name, ttl, workers, err)
					}
				}
			}
		}
	}
}

// FuzzDirectFlood diffs the direct evaluators against the sim kernels on
// arbitrary small graphs: edges from byte pairs (so disconnected graphs,
// isolated nodes, duplicate edges and self-loops all occur), members from a
// bit mask (empty masks included), TTL from one byte.
func FuzzDirectFlood(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 3, 4, 5}, []byte{0xff}, uint8(3))
	f.Add(uint8(10), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 9}, []byte{0x00, 0x00}, uint8(2))
	f.Add(uint8(12), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 7, 8, 8, 9, 9, 10}, []byte{0x5f, 0x07}, uint8(1))
	f.Add(uint8(5), []byte{0, 0, 1, 1, 1, 2, 1, 2}, []byte{0x1f}, uint8(0))
	f.Add(uint8(0), []byte{}, []byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, nodes uint8, edges, mask []byte, ttl uint8) {
		n := int(nodes) % 48
		g := graph.New(n)
		if n > 0 {
			for k := 0; k+1 < len(edges) && k < 400; k += 2 {
				g.AddEdge(int(edges[k])%n, int(edges[k+1])%n)
			}
		}
		member := make([]bool, n)
		for i := range member {
			if i/8 < len(mask) {
				member[i] = mask[i/8]&(1<<(i%8)) != 0
			}
		}
		for _, workers := range []int{1, 3} {
			if err := diffDirectFlood(g, member, int(ttl%8), workers); err != nil {
				t.Fatalf("n=%d ttl=%d workers=%d: %v", n, ttl%8, workers, err)
			}
		}
	})
}

// TestIFFFloodSteadyStateAllocs: the per-node kernels the detection paths
// share allocate nothing once their scratch is warm. IFF runs over a
// member filter (the sharded path), over a compacted member subgraph (the
// default path) and over the incremental engine's live rows and member set;
// the incremental refit assembles a CoordsTrue view off those rows and
// fits it.
func TestIFFFloodSteadyStateAllocs(t *testing.T) {
	w := metamorphicWorlds(t)[0]
	res, err := Detect(w.net, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewNodeTable(w.net, nil)
	members := graph.NodeSetOf(res.UBF)
	mg, err := newMemberGraph(w.net.G, res.UBF)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(w.net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sc graph.Scratch
	var as assembleScratch
	var ubf UBFScratch
	pass := func() {
		for u, b := range res.UBF {
			if b {
				iffFlood(tab.CSR, &sc, members, u, 3)
				iffFlood(inc, &sc, &inc.members, u, 3)
			}
		}
		for l := range mg.glob {
			iffFlood(mg.csr, &sc, nil, l, 3)
		}
		for u := range inc.Len() {
			coords, candidates := trueKnowledge(inc, inc.pos, inc.cfg.Scope, u, &as)
			ubf.Fit(coords, 0, candidates, inc.ballR, uniformTol(inc.tol))
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Errorf("steady-state shared kernels allocate %.1f per pass, want 0", allocs)
	}
}
