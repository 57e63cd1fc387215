// Package cli unifies the flag surface and output conventions of the
// repository's commands (boundary3d, boundaryd, experiment, netgen): one
// Common options block registering the shared -seed, -workers, -shards,
// -detector, -out, -trace, -pprof and -ftdc flags; one Session wiring
// those options into the obs layer (JSONL trace writer, pprof capture,
// FTDC metrics ring); and one JSON output envelope so
// every command's -out file has the same machine-readable framing.
package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/ftdc"
)

// Common is the flag block every command shares. Register it on the
// command's FlagSet, parse, then Start a Session to realize the
// observability options.
type Common struct {
	// Seed overrides the run's base RNG seed; 0 keeps each scenario's
	// default.
	Seed int64
	// Workers bounds worker-pool parallelism (sweep engine and pipeline).
	// 0 means one worker per CPU; results are identical at any width.
	Workers int
	// Shards selects the sharded schedule of detection's per-node stages:
	// above 1 the node set is cut into that many spatial shards, and
	// frames and UBF run shard-parallel; IFF and grouping run once over
	// the whole network. Results, message counters included, are
	// bit-identical to the unsharded run. 0 or 1 keeps the unsharded
	// schedule.
	Shards int
	// Detector names the boundary-detection algorithm from the core
	// registry ("" = the paper's UBF/IFF pipeline).
	Detector string
	// Out is the path of the command's JSON envelope output ("" = none).
	Out string
	// Trace is the path of the JSONL observability trace ("" = none).
	Trace string
	// Pprof is the path prefix for CPU/heap profile capture ("" = none);
	// the profiles land at <prefix>.cpu.pprof and <prefix>.heap.pprof.
	Pprof string
	// FTDC is the directory of the binary delta-encoded metrics capture
	// ring ("" = none). The session attaches an always-on obs.Metrics
	// sink and samples it into the ring every FTDCInterval.
	FTDC string
	// FTDCInterval is the capture sampling period (0 = 1s; floor 10ms).
	FTDCInterval time.Duration
}

// Register installs the shared flags on the flag set.
func (c *Common) Register(fs *flag.FlagSet) {
	fs.Int64Var(&c.Seed, "seed", 0, "base RNG seed override (0 = scenario defaults)")
	fs.IntVar(&c.Workers, "workers", 0, "worker-pool width (0 = one per CPU; any width gives identical results)")
	fs.IntVar(&c.Shards, "shards", 0, "spatial shard count for detection (<= 1 = unsharded; any count gives identical results)")
	fs.StringVar(&c.Detector, "detector", "", "boundary detector to run: "+strings.Join(core.DetectorNames(), ", ")+" (\"\" = paper)")
	fs.StringVar(&c.Out, "out", "", "write the run's results as a JSON envelope to this path")
	fs.StringVar(&c.Trace, "trace", "", "write an observability trace (JSONL stage events and counters) to this path")
	fs.StringVar(&c.Pprof, "pprof", "", "capture CPU and heap profiles under this path prefix")
	fs.StringVar(&c.FTDC, "ftdc", "", "capture delta-encoded binary metrics (FTDC ring) into this directory")
	fs.DurationVar(&c.FTDCInterval, "ftdc-interval", 0, "FTDC sampling period (0 = 1s, minimum 10ms)")
}

// Validate rejects option values no command can honor, by delegating to
// core.Config.Validate — the single validation choke point shared with
// the serving layer — and prefixing the offending flag's spelling, so a
// bad -workers, -shards or -detector fails fast at startup with the same
// diagnostic everywhere.
func (c Common) Validate() error {
	err := c.DetectConfig().Validate()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrNegativeWorkers):
		return fmt.Errorf("cli: -workers: %w", err)
	case errors.Is(err, core.ErrNegativeShards):
		return fmt.Errorf("cli: -shards: %w", err)
	case errors.Is(err, core.ErrUnknownDetector):
		return fmt.Errorf("cli: -detector: %w", err)
	}
	return fmt.Errorf("cli: %w", err)
}

// DetectConfig projects the shared options onto a detection config; the
// command layers its own scenario-specific fields on top.
func (c Common) DetectConfig() core.Config {
	return core.Config{Workers: c.Workers, Shards: c.Shards, Detector: c.Detector}
}

// Session realizes a Common's observability options for one run: the
// trace sink behind Obs and an optional profiler. Always Close it —
// Close stops the profiles, flushes the trace, and validates the written
// JSONL against the schema (the summary lands in Summary).
type Session struct {
	// Obs is the observer to thread through the run; nil when -trace and
	// -ftdc are both unset, so unobserved runs keep the zero-cost no-op
	// path.
	Obs obs.Observer
	// Summary aggregates the validated trace after Close, and Events
	// counts its lines; nil and zero without -trace.
	Summary *obs.Metrics
	Events  int
	// Metrics is the always-on aggregation sink behind -ftdc; nil when
	// -ftdc is unset. Live reads (LatencySummaries, Totals) are safe
	// while the run is in flight.
	Metrics *obs.Metrics
	// FTDC holds the capture ring's activity stats after Close; zero
	// without -ftdc.
	FTDC ftdc.RingStats

	tracePath string
	traceFile *os.File
	trace     *obs.JSONL
	prof      *obs.Profiler
	sampler   *ftdc.Sampler
	vocab     []obs.Stage
}

// Start opens the session: creates the trace file and starts profiling,
// as requested by the options.
func (c Common) Start() (*Session, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &Session{tracePath: c.Trace}
	if d, ok := core.LookupDetector(c.Detector); ok {
		s.vocab = d.Vocab().Stages
	}
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			return nil, fmt.Errorf("cli: trace: %w", err)
		}
		s.traceFile = f
		s.trace = obs.NewJSONL(f)
		s.Obs = s.trace
	}
	if c.FTDC != "" {
		ring, err := ftdc.OpenRing(c.FTDC, ftdc.RingOptions{})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("cli: ftdc: %w", err)
		}
		s.Metrics = &obs.Metrics{}
		s.sampler = ftdc.StartSampler(s.Metrics, ring, c.FTDCInterval)
		s.Obs = obs.Tee(s.Obs, s.Metrics)
	}
	if c.Pprof != "" {
		p, err := obs.StartProfilePrefix(c.Pprof)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.prof = p
	}
	return s, nil
}

// SetVocabStages overrides the stage vocabulary the session's trace is
// validated against at Close. The default is the configured detector's
// declared Vocab().Stages; runs that host several detectors under one
// trace (experiment -run detectors, boundaryd) must widen to the union —
// see AllDetectorVocabStages.
func (s *Session) SetVocabStages(stages []obs.Stage) {
	if s != nil {
		s.vocab = stages
	}
}

// AllDetectorVocabStages returns the union of every registered
// detector's declared stage vocabulary — the widest set a multi-detector
// run can legitimately emit under.
func AllDetectorVocabStages() []obs.Stage {
	seen := map[obs.Stage]bool{}
	var out []obs.Stage
	for _, name := range core.DetectorNames() {
		d, ok := core.LookupDetector(name)
		if !ok {
			continue
		}
		for _, st := range d.Vocab().Stages {
			if !seen[st] {
				seen[st] = true
				out = append(out, st)
			}
		}
	}
	return out
}

// Close stops profiling, flushes and closes the trace, then re-reads the
// written file and validates it against the trace schema, storing the
// aggregate in Summary and the line count in Events. Safe on a
// zero-option session.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var firstErr error
	if err := s.prof.Stop(); err != nil {
		firstErr = err
	}
	s.prof = nil
	if s.sampler != nil {
		// Stop before reading anything: the final ring sample must be
		// exact, which requires the run's emitters to have quiesced.
		if err := s.sampler.Stop(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cli: ftdc capture: %w", err)
		}
		s.FTDC = s.sampler.Stats()
		s.sampler = nil
	}
	if s.trace != nil {
		// Flush surfaces the sticky encoding error if one occurred; check
		// Err separately anyway so a truncated trace can never close
		// cleanly. A command must turn this into a nonzero exit.
		if err := s.trace.Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cli: trace flush: %w", err)
		}
		if err := s.trace.Err(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cli: trace write: %w", err)
		}
		s.trace = nil
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.traceFile = nil
		f, err := os.Open(s.tracePath)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			events, sum, verr := obs.ReadTrace(f)
			f.Close()
			if verr == nil {
				verr = sum.CheckVocab(s.vocab)
			}
			if verr != nil && firstErr == nil {
				firstErr = fmt.Errorf("cli: trace failed schema validation: %w", verr)
			}
			s.Summary, s.Events = sum, len(events)
		}
	}
	return firstErr
}

// Envelope is the shared JSON framing of every command's -out file: the
// producing tool, the run's shared options, free-form parameters, and the
// tool-specific payload.
type Envelope struct {
	Tool     string         `json:"tool"`
	Seed     int64          `json:"seed,omitempty"`
	Workers  int            `json:"workers,omitempty"`
	Shards   int            `json:"shards,omitempty"`
	Detector string         `json:"detector,omitempty"`
	Params   map[string]any `json:"params,omitempty"`
	Data     any            `json:"data"`
}

// NewEnvelope frames a payload with the session's shared options.
func (c Common) NewEnvelope(tool string, params map[string]any, data any) Envelope {
	return Envelope{Tool: tool, Seed: c.Seed, Workers: c.Workers, Shards: c.Shards, Detector: c.Detector, Params: params, Data: data}
}

// WriteEnvelope writes the envelope as indented JSON to path.
func WriteEnvelope(path string, env Envelope) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ErrNotEnvelope marks input that parses as JSON but is not an output
// envelope (no "tool"/"data" framing). Callers with a legacy payload
// format should fall back exactly when errors.Is(err, ErrNotEnvelope);
// any other ReadEnvelope error means the input claims to be an envelope
// (or is not JSON at all) and must not be reinterpreted.
var ErrNotEnvelope = errors.New("cli: not an output envelope (missing tool/data)")

// ReadEnvelope parses an envelope, leaving Data raw for the caller to
// decode. It fails with ErrNotEnvelope on JSON that is not an envelope
// (no "tool" key), so callers can fall back to a legacy payload format,
// and rejects input with trailing data after the envelope document — a
// truncated-then-concatenated -out file used to parse "successfully" as
// its first document.
func ReadEnvelope(raw []byte) (Envelope, json.RawMessage, error) {
	var probe struct {
		Tool     string          `json:"tool"`
		Seed     int64           `json:"seed"`
		Workers  int             `json:"workers"`
		Shards   int             `json:"shards"`
		Detector string          `json:"detector"`
		Params   map[string]any  `json:"params"`
		Data     json.RawMessage `json:"data"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&probe); err != nil {
		return Envelope{}, nil, err
	}
	if tok, err := dec.Token(); err != io.EOF {
		return Envelope{}, nil, fmt.Errorf("cli: trailing data after envelope at offset %d (token %v)", dec.InputOffset(), tok)
	}
	if probe.Tool == "" || probe.Data == nil {
		return Envelope{}, nil, ErrNotEnvelope
	}
	if probe.Detector != "" {
		if _, ok := core.LookupDetector(probe.Detector); !ok {
			return Envelope{}, nil, fmt.Errorf("cli: envelope names unknown detector %q (valid: %s)",
				probe.Detector, strings.Join(core.DetectorNames(), ", "))
		}
	}
	return Envelope{
		Tool: probe.Tool, Seed: probe.Seed, Workers: probe.Workers, Shards: probe.Shards,
		Detector: probe.Detector, Params: probe.Params,
	}, probe.Data, nil
}

// MarshalRaw renders any value to a raw JSON message — the helper for
// embedding writer-style exports (e.g. a network) into an envelope.
func MarshalRaw(write func(w *bytes.Buffer) error) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}
