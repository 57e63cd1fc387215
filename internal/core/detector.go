package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/netgen"
	"repro/internal/obs"
)

// DetectorCaps is a detector's capability bitmask: which optional engine
// features a Detector implementation supports. The dispatcher in
// DetectContext and the serving layer consult it before routing work, so
// asking an incapable detector for a feature fails at the config seam
// instead of deep inside a pipeline.
type DetectorCaps uint32

const (
	// CapSharded: the detector honors Config.Shards > 1 (its per-node
	// stages run over spatial shards, with bit-identical results).
	CapSharded DetectorCaps = 1 << iota
	// CapIncremental: the detector backs core.Incremental's dirty-region
	// repair, so a boundaryd session can apply deltas without full
	// recomputation.
	CapIncremental
	// CapFaults: the detector's flooding phases honor Config.Faults and
	// Config.Async (the hardened sim kernels).
	CapFaults
	// CapMeasurement: the detector consumes a ranging measurement
	// (CoordsMDS frames); detectors without it ignore meas entirely, so
	// their verdicts do not vary with ranging error.
	CapMeasurement
)

// Has reports whether every capability in want is present.
func (c DetectorCaps) Has(want DetectorCaps) bool { return c&want == want }

// DetectorVocab declares the obs vocabulary a detector emits — the
// contract consumers (eval ablation derivation, tracestat gates,
// cross-detector tables) use instead of hard-coding the paper pipeline's
// stage names. A detector must emit spans only under its declared Stages
// (plus StageDetect) and must account its primary per-node work under
// WorkKeys.
type DetectorVocab struct {
	// Stages lists the stages the detector spans, in pipeline order,
	// starting with StageDetect.
	Stages []obs.Stage
	// WorkKeys names the "stage/counter" roll-up keys (the
	// obs.Metrics.Totals key format) measuring the detector's primary
	// per-node work, e.g. "ubf/balls_tested" for the paper pipeline.
	WorkKeys []string
	// FloodStages lists the stages that run message-passing floods and
	// therefore emit the msgs_* counter family.
	FloodStages []obs.Stage
}

// Detector is one boundary-detection algorithm behind the shared
// dispatcher. Implementations must be stateless values: DetectContext may
// be called concurrently, results must be deterministic for a fixed
// (net, meas, cfg) at any worker count, and observation must never change
// the verdict. Every implementation fills the shared Result group
// structure (UBF = candidate set, Boundary = final set, Groups) so
// downstream consumers — metrics, mesh, serve — stay detector-agnostic.
type Detector interface {
	// Name is the registry key, as spelled by -detector and the JSON
	// envelope's "detector" field.
	Name() string
	// Caps declares the optional engine features the detector supports.
	Caps() DetectorCaps
	// Vocab declares the obs stages and counters the detector emits.
	Vocab() DetectorVocab
	// DetectContext runs the detection pipeline. cfg arrives validated
	// (Config.Validate passed) but not defaulted; meas may be nil.
	DetectContext(ctx context.Context, o obs.Observer, net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error)
}

// DefaultDetector is the registry key Config.Detector == "" resolves to:
// the paper's UBF/IFF reference pipeline.
const DefaultDetector = "paper"

// ErrUnknownDetector rejects Config.Detector values absent from the
// registry; Config.Validate wraps it with the valid-name list.
var ErrUnknownDetector = errors.New("core: unknown detector")

var (
	detectorMu  sync.RWMutex
	detectorReg = map[string]Detector{}
)

// RegisterDetector adds a detector to the registry. It panics on an empty
// name or a duplicate registration — both are programmer errors at init
// time, not runtime conditions.
func RegisterDetector(d Detector) {
	name := d.Name()
	if name == "" {
		panic("core: RegisterDetector: empty detector name")
	}
	detectorMu.Lock()
	defer detectorMu.Unlock()
	if _, dup := detectorReg[name]; dup {
		panic(fmt.Sprintf("core: RegisterDetector: duplicate detector %q", name))
	}
	detectorReg[name] = d
}

// LookupDetector resolves a registry name; "" resolves to
// DefaultDetector. ok is false for names never registered.
func LookupDetector(name string) (Detector, bool) {
	if name == "" {
		name = DefaultDetector
	}
	detectorMu.RLock()
	defer detectorMu.RUnlock()
	d, ok := detectorReg[name]
	return d, ok
}

// DetectorNames lists the registered detector names, sorted.
func DetectorNames() []string {
	detectorMu.RLock()
	names := make([]string, 0, len(detectorReg))
	for name := range detectorReg {
		names = append(names, name)
	}
	detectorMu.RUnlock()
	sort.Strings(names)
	return names
}

// detectorNameList renders the registry for error messages.
func detectorNameList() string {
	return strings.Join(DetectorNames(), ", ")
}

func init() {
	RegisterDetector(PaperDetector{})
	RegisterDetector(svEnclosureDetector{})
	RegisterDetector(svContourDetector{})
	RegisterDetector(degreeStatsDetector{})
}

// PaperDetector is the reference implementation: the source paper's
// localized UBF/IFF pipeline (frames → Unit Ball Fitting → Isolated
// Fragment Filtering → grouping). DetectContext dispatches to it when
// Config.Detector is "" or "paper"; its output is pinned bit-identical to
// the pre-interface pipeline by the shard/incremental differential
// suites.
type PaperDetector struct{}

// Name implements Detector.
func (PaperDetector) Name() string { return DefaultDetector }

// Caps implements Detector: the paper pipeline supports every optional
// engine feature.
func (PaperDetector) Caps() DetectorCaps {
	return CapSharded | CapIncremental | CapFaults | CapMeasurement
}

// Vocab implements Detector.
func (PaperDetector) Vocab() DetectorVocab {
	return DetectorVocab{
		Stages: []obs.Stage{
			obs.StageDetect, obs.StageFrames, obs.StageUBF,
			obs.StageIFF, obs.StageGrouping,
		},
		WorkKeys:    []string{"ubf/balls_tested", "ubf/nodes_checked"},
		FloodStages: []obs.Stage{obs.StageIFF, obs.StageGrouping},
	}
}

// DetectContext implements Detector; the body is the pre-interface
// pipeline, moved verbatim from the old DetectContext.
func (PaperDetector) DetectContext(ctx context.Context, o obs.Observer, net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error) {
	return paperDetect(ctx, o, net, meas, cfg)
}
