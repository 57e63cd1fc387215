// Registry and contract tests for the detector zoo: name resolution,
// Config.Validate as the single choke point for unknown names, capability
// gating at the dispatch seams, and the obs-vocabulary contract (a
// detector emits counters only under its declared stages, and its declared
// work keys actually appear).
package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestDetectorRegistryNames(t *testing.T) {
	names := DetectorNames()
	for _, want := range []string{"paper", "sv-enclosure", "sv-contour", "degree-stats"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("registry missing %q (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("DetectorNames not sorted: %v", names)
		}
	}

	def, ok := LookupDetector("")
	if !ok || def.Name() != DefaultDetector {
		t.Fatalf(`LookupDetector("") = %v, %v; want the %q detector`, def, ok, DefaultDetector)
	}
	if _, ok := LookupDetector("no-such-detector"); ok {
		t.Fatal("LookupDetector resolved an unregistered name")
	}
}

func TestDetectorValidateUnknownName(t *testing.T) {
	err := Config{Detector: "no-such-detector"}.Validate()
	if !errors.Is(err, ErrUnknownDetector) {
		t.Fatalf("Validate = %v, want ErrUnknownDetector", err)
	}
	// The message must teach the valid spellings.
	if !strings.Contains(err.Error(), DefaultDetector) {
		t.Fatalf("error %q does not list the valid detector names", err)
	}

	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("empty config must validate (default detector): %v", err)
	}
	if err := (Config{Detector: DefaultDetector}).Validate(); err != nil {
		t.Fatalf("explicit %q must validate: %v", DefaultDetector, err)
	}
}

// TestDetectorCapGates verifies the dispatch seam that consults the
// capability bitmask up front: sharding is refused for detectors that do
// not declare it. (Incremental sessions accept every detector; the
// CapIncremental bit picks the repair, which TestIncrementalDifferential
// covers per detector.)
func TestDetectorCapGates(t *testing.T) {
	net := metamorphicWorlds(t)[0].net

	for _, name := range DetectorNames() {
		det, _ := LookupDetector(name)
		if det.Caps().Has(CapSharded) {
			continue
		}
		cfg := metaCfg(name, 1)
		cfg.Shards = 2
		if _, err := DetectContext(context.Background(), nil, net, nil, cfg); err == nil ||
			!strings.Contains(err.Error(), "sharding") {
			t.Fatalf("%s: Shards=2 must fail with a sharding error, got %v", name, err)
		}
	}
}

// TestDetectorVocabContract runs every registered detector under a
// recording observer and checks the declared vocabulary against what was
// actually emitted: every counter falls under a declared stage, every
// declared work key shows up with a positive total, and FloodStages is a
// subset of Stages.
func TestDetectorVocabContract(t *testing.T) {
	net := metamorphicWorlds(t)[0].net

	for _, name := range DetectorNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			det, _ := LookupDetector(name)
			vocab := det.Vocab()
			if len(vocab.Stages) == 0 || vocab.Stages[0] != obs.StageDetect {
				t.Fatalf("Vocab().Stages must start with StageDetect, got %v", vocab.Stages)
			}
			declared := map[string]bool{}
			for _, s := range vocab.Stages {
				declared[s.String()] = true
			}
			for _, s := range vocab.FloodStages {
				if !declared[s.String()] {
					t.Fatalf("flood stage %s not in declared Stages", s)
				}
			}

			mem := &obs.Mem{}
			if _, err := DetectContext(context.Background(), mem, net, nil, metaCfg(name, 1)); err != nil {
				t.Fatal(err)
			}
			totals := mem.Totals()
			for key := range totals {
				stage := key[:strings.IndexByte(key, '/')]
				if !declared[stage] {
					t.Errorf("counter %s emitted under undeclared stage %s", key, stage)
				}
			}
			for _, key := range vocab.WorkKeys {
				if totals[key] <= 0 {
					t.Errorf("declared work key %s absent or zero (totals %v)", key, totals)
				}
			}
		})
	}
}
