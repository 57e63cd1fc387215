package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/ranging"
	"repro/internal/sim"
)

// TestDetectContextObservedBitIdentical: observation must never change
// what the pipeline computes. For every kernel/fault configuration the
// observed run's Result is reflect.DeepEqual to the unobserved one, the
// trace's spans are balanced, and the counters match the Result's own
// accounting.
func TestDetectContextObservedBitIdentical(t *testing.T) {
	net, _ := fixtures(t)
	faults := sim.FaultConfig{
		Seed:            7,
		DropRate:        0.2,
		MaxDropsPerLink: 2,
		DuplicateRate:   0.1,
		DelayRate:       0.2,
		MaxExtraDelay:   2,
	}
	cases := map[string]Config{
		"sync":         {},
		"async":        {Async: true, AsyncSeed: 3},
		"faulty-sync":  {Faults: faults},
		"faulty-async": {Async: true, AsyncSeed: 3, Faults: faults},
		"no-iff":       {IFFThreshold: -1},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			plain, err := Detect(net, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := &obs.Mem{}
			observed, err := DetectContext(context.Background(), m, net, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, observed) {
				t.Fatal("observed Detect result differs from unobserved run")
			}

			if un := m.Unbalanced(); len(un) != 0 {
				t.Errorf("unbalanced spans: %v", un)
			}
			// CoordsTrue runs skip the frames stage; TestDetectContextObservedMDS
			// covers it.
			wantSpans := []obs.Stage{obs.StageDetect, obs.StageUBF, obs.StageIFF, obs.StageGrouping}
			for _, s := range wantSpans {
				if m.Spans(s) != 1 {
					t.Errorf("stage %s: %d spans, want 1", s, m.Spans(s))
				}
			}

			if got := m.Total(obs.StageDetect, obs.CtrNodes); got != int64(len(net.Nodes)) {
				t.Errorf("nodes counter %d, want %d", got, len(net.Nodes))
			}
			if m.Total(obs.StageUBF, obs.CtrBallsTested) == 0 {
				t.Error("no balls tested recorded")
			}
			if m.Total(obs.StageUBF, obs.CtrNodesChecked) == 0 {
				t.Error("no membership checks recorded")
			}
			boundary := int64(0)
			for _, b := range observed.Boundary {
				if b {
					boundary++
				}
			}
			if got := m.Total(obs.StageIFF, obs.CtrBoundary); got != boundary {
				t.Errorf("boundary counter %d, want %d", got, boundary)
			}
			if got := m.Total(obs.StageGrouping, obs.CtrGroups); got != int64(len(observed.Groups)) {
				t.Errorf("groups counter %d, want %d", got, len(observed.Groups))
			}

			// Message accounting: the trace must agree with the Result's
			// own counters, per phase and per fault discipline.
			if !cfg.Faults.Enabled() {
				if got := m.Total(obs.StageIFF, obs.CtrMsgsSent); got != int64(observed.IFFMessages) {
					t.Errorf("IFF msgs_sent %d, want %d", got, observed.IFFMessages)
				}
				if got := m.Total(obs.StageGrouping, obs.CtrMsgsSent); got != int64(observed.GroupingMessages) {
					t.Errorf("grouping msgs_sent %d, want %d", got, observed.GroupingMessages)
				}
				if m.CounterTotal(obs.CtrMsgsDropped) != 0 {
					t.Error("fault-free run recorded drops")
				}
			} else {
				fs := observed.FaultStats
				if got := m.CounterTotal(obs.CtrMsgsSent); got != int64(fs.Attempts) {
					t.Errorf("msgs_sent %d, want fault-layer attempts %d", got, fs.Attempts)
				}
				if got := m.CounterTotal(obs.CtrMsgsDropped); got != int64(fs.TotalDropped()) {
					t.Errorf("msgs_dropped %d, want %d", got, fs.TotalDropped())
				}
				if got := m.CounterTotal(obs.CtrMsgsRetransmitted); got != int64(fs.Retransmits) {
					t.Errorf("msgs_retransmitted %d, want %d", got, fs.Retransmits)
				}
				if m.CounterTotal(obs.CtrMsgsDropped) == 0 {
					t.Error("faulty run recorded no drops — test is vacuous")
				}
			}
			if !cfg.Async {
				if m.CounterTotal(obs.CtrFloodRounds) == 0 {
					t.Error("sync run recorded no flood rounds")
				}
			}
		})
	}
}

// TestDetectContextRoundEvents: the flight recorder's round and
// transition stream must agree with the pipeline's own outputs — one
// boundary claim per UBF-positive node, one rescind per claim IFF
// withdrew, and per-stage round accounting that conserves messages at
// quiescence on both kernels.
func TestDetectContextRoundEvents(t *testing.T) {
	net, _ := fixtures(t)
	cases := map[string]Config{
		"sync":  {},
		"async": {Async: true, AsyncSeed: 3},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			m := &obs.Mem{}
			res, err := DetectContext(context.Background(), m, net, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}

			claims, rescinds := 0, 0
			for i, u := range res.UBF {
				if u {
					claims++
					if !res.Boundary[i] {
						rescinds++
					}
				}
			}
			if got := m.Transitions(obs.TransBoundaryClaim); got != claims {
				t.Errorf("boundary_claim transitions = %d, want %d", got, claims)
			}
			if got := m.Transitions(obs.TransIFFRescind); got != rescinds {
				t.Errorf("iff_rescind transitions = %d, want %d", got, rescinds)
			}
			if m.Transitions(obs.TransLabelAdopt) == 0 {
				t.Error("grouping recorded no label adoptions")
			}

			for _, s := range []obs.Stage{obs.StageIFF, obs.StageGrouping} {
				if m.Rounds(s) == 0 {
					t.Errorf("stage %s recorded no rounds", s)
					continue
				}
				var total obs.RoundStats
				for _, ev := range m.Events() {
					if ev.Kind == obs.KindRoundEnd && ev.Stage == s {
						total.Add(ev.Stats)
					}
				}
				if left := total.Sent + total.Duplicated - total.Delivered - total.Dropped; left != 0 {
					t.Errorf("stage %s: %d message(s) unaccounted at quiescence", s, left)
				}
				if total.Sent == 0 || total.Active == 0 {
					t.Errorf("stage %s: vacuous round accounting %+v", s, total)
				}
			}
		})
	}
}

// TestDetectContextObservedMDS: under CoordsMDS the frames stage gets its
// own balanced span, and the result still matches the unobserved run.
func TestDetectContextObservedMDS(t *testing.T) {
	net, _ := fixtures(t)
	meas := net.Measure(ranging.Exact{}, 0)
	plain, err := Detect(net, meas, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := &obs.Mem{}
	observed, err := DetectContext(context.Background(), m, net, meas, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("observed MDS Detect result differs from unobserved run")
	}
	if m.Spans(obs.StageFrames) != 1 {
		t.Errorf("frames spans = %d, want 1", m.Spans(obs.StageFrames))
	}
	if un := m.Unbalanced(); len(un) != 0 {
		t.Errorf("unbalanced spans: %v", un)
	}
}

// TestDetectContextCancelled: a pre-cancelled context aborts the pipeline
// with the context's error.
func TestDetectContextCancelled(t *testing.T) {
	net, _ := fixtures(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DetectContext(ctx, nil, net, nil, Config{}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// TestDetectNoOpObserverHotPathAllocFree: the UBF hot path — a warmed
// scratch Fit plus the nil-observer accounting exactly as the detection
// loop performs it — must stay allocation-free, so tracing support cannot
// tax unobserved runs.
func TestDetectNoOpObserverHotPathAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	interior := denseNeighborhood(rng, 150)
	boundary := halfSpaceNeighborhood(rng, 150)
	var s UBFScratch
	s.Fit(interior, 0, nil, 1.0, uniformTol(1e-9)) // warm the buffers
	s.Fit(boundary, 0, nil, 1.0, uniformTol(1e-9))
	allocs := testing.AllocsPerRun(50, func() {
		span := obs.Start(nil, obs.StageUBF)
		r1 := s.Fit(interior, 0, nil, 1.0, uniformTol(1e-9))
		r2 := s.Fit(boundary, 0, nil, 1.0, uniformTol(1e-9))
		obs.Add(nil, obs.StageUBF, obs.CtrBallsTested, int64(r1.BallsTested+r2.BallsTested))
		obs.Add(nil, obs.StageUBF, obs.CtrNodesChecked, int64(r1.NodesChecked+r2.NodesChecked))
		span.End()
	})
	if allocs != 0 {
		t.Errorf("no-op observed UBF hot path allocates %.1f times per run", allocs)
	}
}
