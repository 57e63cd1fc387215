package eval

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestMetamorphicExecutionModels is the repo's central metamorphic
// suite: for every paper scenario, the detection outcome must be
// byte-identical across execution models that the theory says cannot
// matter —
//
//   - synchronized rounds (the reference),
//   - asynchronous per-message delays,
//   - synchronized rounds with faults below the retransmission budget,
//   - asynchronous delivery with the same recoverable faults.
//
// The flooding protocols are delay-independent, and with per-link loss
// capped at MaxDropsPerLink = 2, within the fixed retransmission budget
// of 3, the acknowledged variants mask every loss, so all four runs must
// agree on the boundary set, the per-node fragment sizes, and the
// grouping.
func TestMetamorphicExecutionModels(t *testing.T) {
	recoverable := sim.FaultConfig{
		Seed:            11,
		DropRate:        0.25,
		MaxDropsPerLink: 2,
		DuplicateRate:   0.2,
		DelayRate:       0.3,
		MaxExtraDelay:   2,
	}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"sync", core.Config{}},
		{"async", core.Config{Async: true, AsyncSeed: 5}},
		{"sync-faults", core.Config{Faults: recoverable}},
		{"async-faults", core.Config{Async: true, AsyncSeed: 5, Faults: recoverable}},
	}
	for _, sc := range AllScenarios() {
		sc := sc.Scaled(0.12)
		t.Run(sc.Name, func(t *testing.T) {
			net, err := sc.Generate()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.Detect(net, nil, variants[0].cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants[1:] {
				got, err := core.Detect(net, nil, v.cfg)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				for i := range ref.Boundary {
					if got.Boundary[i] != ref.Boundary[i] {
						t.Fatalf("%s: boundary differs at node %d", v.name, i)
					}
					if got.FragmentSize[i] != ref.FragmentSize[i] {
						t.Fatalf("%s: fragment size differs at node %d: %d vs %d",
							v.name, i, got.FragmentSize[i], ref.FragmentSize[i])
					}
					if got.GroupLabel[i] != ref.GroupLabel[i] {
						t.Fatalf("%s: group label differs at node %d: %d vs %d",
							v.name, i, got.GroupLabel[i], ref.GroupLabel[i])
					}
				}
				if len(got.Groups) != len(ref.Groups) {
					t.Fatalf("%s: %d groups, want %d", v.name, len(got.Groups), len(ref.Groups))
				}
				for gi := range ref.Groups {
					if len(got.Groups[gi]) != len(ref.Groups[gi]) {
						t.Fatalf("%s: group %d size %d, want %d",
							v.name, gi, len(got.Groups[gi]), len(ref.Groups[gi]))
					}
					for vi := range ref.Groups[gi] {
						if got.Groups[gi][vi] != ref.Groups[gi][vi] {
							t.Fatalf("%s: group %d member %d differs", v.name, gi, vi)
						}
					}
				}
			}
		})
	}
}
