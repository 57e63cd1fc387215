package obs

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// This file is the one aggregation sink: where Mem keeps every event for
// test introspection and JSONL streams them to disk, Metrics folds the
// stream into fixed-size atomic tables — per-(stage, counter) totals plus
// a per-stage latency histogram — cheap enough to leave attached to a
// long-lived boundaryd process under load. Every other roll-up reads a
// Metrics: Mem embeds one, ReadTrace replays a trace into one, and Load
// reads a snapshot document (an FTDC sample) back into one, so this file
// alone writes and reads the snapshot key format.

// Log-linear histogram layout: values below histLinear nanoseconds get
// one bucket each; every power-of-two octave above that is split into
// histSub linear sub-buckets, so the relative quantization error is
// bounded by 1/histSub (12.5%) across the whole int64 range. The layout
// is part of the FTDC wire contract — changing it invalidates recorded
// rings — so the constants are mirrored in DESIGN.md §14.
const (
	histLinear = 8 // values in [0, 8) ns are exact
	histSub    = 8 // sub-buckets per octave above that
	// HistBuckets is the fixed bucket count of every stage latency
	// histogram: 8 exact buckets plus 61 octaves (2^3..2^63) of 8
	// sub-buckets.
	HistBuckets = histLinear + (64-3)*histSub
)

// histBucketOf maps a non-negative duration to its bucket index.
func histBucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns)
	if u < histLinear {
		return int(u)
	}
	b := bits.Len64(u)         // 4..64, since u >= 8
	mant := u >> (uint(b) - 4) // top 4 bits, in [8, 16)
	return histLinear + (b-4)*histSub + int(mant-histLinear)
}

// BucketLow returns the inclusive lower bound (in nanoseconds) of
// histogram bucket i — the representative value quantile lookups report.
// Bounds past int64 range (the top octave is only reachable from uint64
// inputs the recorder never produces) saturate to MaxInt64.
func BucketLow(i int) int64 {
	if i < histLinear {
		if i < 0 {
			return 0
		}
		return int64(i)
	}
	o := (i - histLinear) / histSub
	m := (i - histLinear) % histSub
	if o > 60 {
		return math.MaxInt64
	}
	v := uint64(histLinear+m) << uint(o)
	if v > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

// histogram is one stage's latency distribution: fixed log-linear
// buckets updated with two atomic adds per recorded span, so the record
// path allocates nothing and takes no locks.
type histogram struct {
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

func (h *histogram) record(ns int64) {
	h.sum.Add(ns)
	h.buckets[histBucketOf(ns)].Add(1)
}

// HistSnapshot is a point-in-time copy of one latency histogram,
// decoupled from the live atomics: Counts[i] spans recorded in bucket i
// (lower bound BucketLow(i)), SumNS their summed wall time.
type HistSnapshot struct {
	Counts []int64
	SumNS  int64
}

// Count totals the recorded spans.
func (h HistSnapshot) Count() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns the lower bound of the bucket holding the q-quantile
// (0 < q <= 1) — within one sub-bucket (12.5%) of the true value. Zero
// when the histogram is empty.
func (h HistSnapshot) Quantile(q float64) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= target {
			return BucketLow(i)
		}
	}
	return BucketLow(len(h.Counts) - 1)
}

// Max returns the lower bound of the highest occupied bucket; zero when
// empty.
func (h HistSnapshot) Max() int64 {
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] != 0 {
			return BucketLow(i)
		}
	}
	return 0
}

// LatencyStats is the wire rendering of one stage's latency summary —
// what boundaryd's GET /v1/metrics and tracestat -ftdc report.
type LatencyStats struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
}

// Stats folds a snapshot into the standard quantile summary.
func (h HistSnapshot) Stats() LatencyStats {
	return LatencyStats{
		Count: h.Count(),
		SumNS: h.SumNS,
		P50NS: h.Quantile(0.50),
		P95NS: h.Quantile(0.95),
		P99NS: h.Quantile(0.99),
		MaxNS: h.Max(),
	}
}

// Metric is one named scalar in a metrics snapshot — the document unit
// the FTDC capture delta-encodes. Key vocabulary (all components use the
// String() spellings of the obs enums):
//
//	ctr/<stage>/<counter>   counter total
//	lat/<stage>/b<idx>      latency histogram bucket count
//	lat/<stage>/sum         summed span wall time (ns)
//	rounds/<stage>          completed protocol rounds
//	spans/<stage>           completed spans
//	trans/<transition>      node state changes
//	ts/unix_ns              sample wall-clock stamp (sampler-added)
type Metric struct {
	Key   string
	Value int64
}

// Metrics is the always-on Observer: fixed atomic tables, no locks, no
// allocation on any record path — the counter hot path is two bounds
// checks and one atomic add, asserted by TestMetricsHotPathZeroAllocs.
// Unknown enum values fold into slot 0 rather than panicking, so a
// corrupted event can never crash a server. The zero value is ready.
//
// Reads (Snapshot, Total, Latency) run concurrently with writes; a
// snapshot taken mid-update may be skewed by in-flight events, but a
// quiesced Metrics (all emitters stopped) snapshots exactly — the FTDC
// round-trip gates rely on that final-sample exactness.
type Metrics struct {
	counters [stageEnd][counterEnd]atomic.Int64
	spans    [stageEnd]atomic.Int64
	rounds   [stageEnd]atomic.Int64
	trans    [transitionEnd]atomic.Int64
	lat      [stageEnd]histogram
}

// clampStage folds out-of-range stages into the unused slot 0.
func clampStage(s Stage) Stage {
	if s >= stageEnd {
		return 0
	}
	return s
}

// StageBegin implements Observer; begins are free — only ends carry wall
// time.
func (m *Metrics) StageBegin(Stage, string) {}

// StageEnd implements Observer: one completed span lands in the stage's
// latency histogram.
func (m *Metrics) StageEnd(s Stage, _ string, wallNS int64) {
	s = clampStage(s)
	m.spans[s].Add(1)
	m.lat[s].record(wallNS)
}

// Count implements Observer.
func (m *Metrics) Count(s Stage, c Counter, delta int64) {
	s = clampStage(s)
	if c >= counterEnd {
		c = 0
	}
	m.counters[s][c].Add(delta)
}

// RoundBegin implements Observer.
func (m *Metrics) RoundBegin(Stage, int) {}

// RoundEnd implements Observer. Per-message accounting already arrives
// through the msgs_* counters, so only the round count is kept — folding
// RoundStats in too would double-count.
func (m *Metrics) RoundEnd(s Stage, _ int, _ RoundStats) {
	m.rounds[clampStage(s)].Add(1)
}

// NodeTransition implements Observer.
func (m *Metrics) NodeTransition(_ Stage, t Transition, _ int, _ int64) {
	if t >= transitionEnd {
		t = 0
	}
	m.trans[t].Add(1)
}

// replay folds one recorded event into the tables — the path Mem and
// ReadTrace share. Begins carry nothing a Metrics keeps.
func (m *Metrics) replay(ev Event) {
	switch ev.Kind {
	case KindEnd:
		m.StageEnd(ev.Stage, ev.Label, ev.WallNS)
	case KindCount:
		m.Count(ev.Stage, ev.Counter, ev.Value)
	case KindRoundEnd:
		m.RoundEnd(ev.Stage, ev.Round, ev.Stats)
	case KindTransition:
		m.NodeTransition(ev.Stage, ev.Trans, ev.Node, ev.Value)
	}
}

// Total returns one stage counter's accumulated value.
func (m *Metrics) Total(s Stage, c Counter) int64 {
	if s >= stageEnd || c >= counterEnd {
		return 0
	}
	return m.counters[s][c].Load()
}

// CounterTotal sums one counter across every stage.
func (m *Metrics) CounterTotal(c Counter) int64 {
	if c >= counterEnd {
		return 0
	}
	var n int64
	for s := Stage(1); s < stageEnd; s++ {
		n += m.counters[s][c].Load()
	}
	return n
}

// Spans returns how many spans of the stage completed.
func (m *Metrics) Spans(s Stage) int {
	if s >= stageEnd {
		return 0
	}
	return int(m.spans[s].Load())
}

// Rounds returns how many protocol rounds of the stage completed.
func (m *Metrics) Rounds(s Stage) int {
	if s >= stageEnd {
		return 0
	}
	return int(m.rounds[s].Load())
}

// Transitions returns how many node state changes of the kind were
// recorded.
func (m *Metrics) Transitions(t Transition) int {
	if t >= transitionEnd {
		return 0
	}
	return int(m.trans[t].Load())
}

// Totals flattens the nonzero counters into a "stage/counter" -> value
// map: the per-cell roll-up eval.Engine attaches to result rows, and the
// counter set boundaryd's GET /v1/metrics and tracestat -ftdc report.
func (m *Metrics) Totals() map[string]int64 {
	out := make(map[string]int64)
	for s := Stage(1); s < stageEnd; s++ {
		for c := Counter(1); c < counterEnd; c++ {
			if v := m.counters[s][c].Load(); v != 0 {
				out[s.String()+"/"+c.String()] = v
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Latency snapshots one stage's histogram.
func (m *Metrics) Latency(s Stage) HistSnapshot {
	if s >= stageEnd {
		return HistSnapshot{}
	}
	h := &m.lat[s]
	snap := HistSnapshot{SumNS: h.sum.Load()}
	var counts []int64
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			if counts == nil {
				counts = make([]int64, HistBuckets)
			}
			counts[i] = c
		}
	}
	snap.Counts = counts
	return snap
}

// LatencySummaries renders every stage with at least one completed span
// as its quantile summary, keyed by stage name.
func (m *Metrics) LatencySummaries() map[string]LatencyStats {
	out := make(map[string]LatencyStats)
	for s := Stage(1); s < stageEnd; s++ {
		if snap := m.Latency(s); snap.Count() > 0 {
			out[s.String()] = snap.Stats()
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Snapshot appends every nonzero metric to buf as a key-sorted document
// — the FTDC sample unit. Zero-valued slots are skipped, so the key set
// grows monotonically as stages fire and the capture layer's
// schema-change records stay rare.
func (m *Metrics) Snapshot(buf []Metric) []Metric {
	for s := Stage(1); s < stageEnd; s++ {
		sn := s.String()
		for c := Counter(1); c < counterEnd; c++ {
			if v := m.counters[s][c].Load(); v != 0 {
				buf = append(buf, Metric{Key: "ctr/" + sn + "/" + c.String(), Value: v})
			}
		}
		h := &m.lat[s]
		for i := range h.buckets {
			if v := h.buckets[i].Load(); v != 0 {
				buf = append(buf, Metric{Key: "lat/" + sn + "/b" + strconv.Itoa(i), Value: v})
			}
		}
		if v := h.sum.Load(); v != 0 {
			buf = append(buf, Metric{Key: "lat/" + sn + "/sum", Value: v})
		}
		if v := m.rounds[s].Load(); v != 0 {
			buf = append(buf, Metric{Key: "rounds/" + sn, Value: v})
		}
		if v := m.spans[s].Load(); v != 0 {
			buf = append(buf, Metric{Key: "spans/" + sn, Value: v})
		}
	}
	for t := Transition(1); t < transitionEnd; t++ {
		if v := m.trans[t].Load(); v != 0 {
			buf = append(buf, Metric{Key: "trans/" + t.String(), Value: v})
		}
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i].Key < buf[j].Key })
	return buf
}

// Load folds a snapshot document — Snapshot's output, or a decoded FTDC
// sample — into m, so a recorded document reads back through the same
// accessors as a live sink: Load on a zero Metrics followed by Snapshot
// returns the document. Keys outside the vocabulary are skipped: the
// sampler's ts/unix_ns stamp, unknown stage, counter or transition
// spellings, and bucket indices Snapshot would not write.
func (m *Metrics) Load(doc []Metric) {
	// Unknown spellings (and "") resolve to slot 0, which Snapshot never
	// writes, so every lookup below guards on a nonzero result.
	for _, mt := range doc {
		family, rest, _ := strings.Cut(mt.Key, "/")
		first, field, _ := strings.Cut(rest, "/")
		switch family {
		case "ctr":
			s, _ := StageFromString(first)
			c, _ := CounterFromString(field)
			if s != 0 && c != 0 {
				m.counters[s][c].Add(mt.Value)
			}
		case "lat":
			s, _ := StageFromString(first)
			if s == 0 {
				continue
			}
			if field == "sum" {
				m.lat[s].sum.Add(mt.Value)
			} else if i, ok := bucketOf(field); ok {
				m.lat[s].buckets[i].Add(mt.Value)
			}
		case "rounds":
			if s, _ := StageFromString(rest); s != 0 {
				m.rounds[s].Add(mt.Value)
			}
		case "spans":
			if s, _ := StageFromString(rest); s != 0 {
				m.spans[s].Add(mt.Value)
			}
		case "trans":
			if t, _ := TransitionFromString(rest); t != 0 {
				m.trans[t].Add(mt.Value)
			}
		}
	}
}

// bucketOf parses a "b<idx>" histogram field, accepting only the
// canonical spelling Snapshot writes.
func bucketOf(field string) (int, bool) {
	digits, ok := strings.CutPrefix(field, "b")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(digits)
	if err != nil || i < 0 || i >= HistBuckets || strconv.Itoa(i) != digits {
		return 0, false
	}
	return i, true
}

// Tally is one named scalar of a Metrics' diff view (see Tallies).
type Tally struct {
	Name  string
	Stage Stage // orders per-stage tallies; 0 for counts
	Value int64
}

// Tallies renders m's nonzero tallies under the names trace and capture
// diffs report them by, one list per tolerance class: counts holds the
// counter totals ("stage/counter") and transition tallies
// ("trans/<transition>"); rounds the completed protocol rounds per stage
// ("rounds/<stage>"); wall the summed span wall time of every stage that
// completed a span ("wall_ns/<stage>"). Rounds and wall are in stage
// order.
func (m *Metrics) Tallies() (counts, rounds, wall []Tally) {
	for s := Stage(1); s < stageEnd; s++ {
		sn := s.String()
		for c := Counter(1); c < counterEnd; c++ {
			if v := m.counters[s][c].Load(); v != 0 {
				counts = append(counts, Tally{Name: sn + "/" + c.String(), Value: v})
			}
		}
		if v := m.rounds[s].Load(); v != 0 {
			rounds = append(rounds, Tally{Name: "rounds/" + sn, Stage: s, Value: v})
		}
		if sum := m.lat[s].sum.Load(); sum != 0 || m.spans[s].Load() != 0 {
			wall = append(wall, Tally{Name: "wall_ns/" + sn, Stage: s, Value: sum})
		}
	}
	for t := Transition(1); t < transitionEnd; t++ {
		if v := m.trans[t].Load(); v != 0 {
			counts = append(counts, Tally{Name: "trans/" + t.String(), Value: v})
		}
	}
	return counts, rounds, wall
}
