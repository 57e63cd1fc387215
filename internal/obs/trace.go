package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// traceLine is the JSONL wire format: one event per line. ts_ns is the
// time since the writer was opened, so a trace reads as a timeline
// without trusting wall clocks across processes. seq is a per-writer
// monotonic line number assigned under the sink's mutex, so events from
// concurrent sweep cells stay totally ordered even when ts_ns ties.
//
//	{"ev":"begin","stage":"ubf","seq":0,"ts_ns":12345}
//	{"ev":"end","stage":"ubf","seq":1,"ts_ns":99999,"wall_ns":87654}
//	{"ev":"count","stage":"iff","counter":"msgs_delivered","value":1234,"seq":2,"ts_ns":100000}
//	{"ev":"round_begin","stage":"iff","round":0,"seq":3,"ts_ns":100100}
//	{"ev":"round_end","stage":"iff","round":0,"stats":{...},"seq":4,"ts_ns":100200}
//	{"ev":"trans","stage":"grouping","trans":"label_adopt","node":17,"value":3,"seq":5,"ts_ns":100300}
type traceLine struct {
	Ev      string      `json:"ev"`
	Stage   string      `json:"stage"`
	Label   string      `json:"label,omitempty"`
	Counter string      `json:"counter,omitempty"`
	Value   *int64      `json:"value,omitempty"`
	WallNS  *int64      `json:"wall_ns,omitempty"`
	Round   *int        `json:"round,omitempty"`
	Stats   *RoundStats `json:"stats,omitempty"`
	Trans   string      `json:"trans,omitempty"`
	Node    *int        `json:"node,omitempty"`
	Seq     *int64      `json:"seq"`
	TsNS    int64       `json:"ts_ns"`
}

// JSONL is an Observer writing one JSON object per event to an io.Writer
// — the sink behind `cmd/experiment -trace`. Writes are serialized by a
// mutex so concurrently-emitting pipeline workers produce intact lines.
// Encoding errors are sticky and surfaced by Close/Err rather than per
// event, so instrumented code stays error-free.
type JSONL struct {
	mu    sync.Mutex
	w     *bufio.Writer
	enc   *json.Encoder
	start time.Time
	seq   int64
	err   error
}

// NewJSONL wraps w in a JSONL sink. The caller owns closing the
// underlying writer; call Close (or Flush) first.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{w: bw, enc: json.NewEncoder(bw), start: time.Now()}
}

func (j *JSONL) emit(l traceLine) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	seq := j.seq
	j.seq++
	l.Seq = &seq
	l.TsNS = time.Since(j.start).Nanoseconds()
	j.err = j.enc.Encode(l)
}

// StageBegin implements Observer.
func (j *JSONL) StageBegin(s Stage, label string) {
	j.emit(traceLine{Ev: "begin", Stage: s.String(), Label: label})
}

// StageEnd implements Observer.
func (j *JSONL) StageEnd(s Stage, label string, wallNS int64) {
	j.emit(traceLine{Ev: "end", Stage: s.String(), Label: label, WallNS: &wallNS})
}

// Count implements Observer.
func (j *JSONL) Count(s Stage, c Counter, delta int64) {
	j.emit(traceLine{Ev: "count", Stage: s.String(), Counter: c.String(), Value: &delta})
}

// RoundBegin implements Observer.
func (j *JSONL) RoundBegin(s Stage, round int) {
	j.emit(traceLine{Ev: "round_begin", Stage: s.String(), Round: &round})
}

// RoundEnd implements Observer.
func (j *JSONL) RoundEnd(s Stage, round int, rs RoundStats) {
	j.emit(traceLine{Ev: "round_end", Stage: s.String(), Round: &round, Stats: &rs})
}

// NodeTransition implements Observer.
func (j *JSONL) NodeTransition(s Stage, t Transition, node int, value int64) {
	j.emit(traceLine{Ev: "trans", Stage: s.String(), Trans: t.String(), Node: &node, Value: &value})
}

// Flush drains buffered lines to the underlying writer.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// Err returns the first write or encoding error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// TraceEvent is one parsed trace line: the in-memory Event plus its wire
// ordering metadata.
type TraceEvent struct {
	Event
	// Seq is the writer-assigned monotonic line number.
	Seq int64
	// TsNS is the line's timestamp relative to the writer's start.
	TsNS int64
}

// spanKey scopes begin/end balance to (stage, label), so a labeled cell
// span cannot be closed by an unlabeled end of the same stage.
type spanKey struct {
	stage Stage
	label string
}

// roundKey scopes round balance to (stage, round).
type roundKey struct {
	stage Stage
	round int
}

// ReadTrace parses and validates a JSONL trace, returning every event in
// wire order plus the Metrics every validated event was replayed into.
// Validation enforces the schema (known ev/stage/counter/trans
// vocabulary, no unknown fields, required payloads present), seq
// consecutive from 0, ts_ns non-decreasing (the writer serializes under
// one mutex, so the timeline is total), begin/end balance per (stage,
// label), round begin/end balance per (stage, round) with rounds ≥
// InitRound, non-negative round stats, and nodes ≥ 0.
func ReadTrace(r io.Reader) ([]TraceEvent, *Metrics, error) {
	sum := &Metrics{}
	var events []TraceEvent
	openSpans := make(map[spanKey]int)
	openRounds := make(map[roundKey]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	var wantSeq, lastTs int64
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l traceLine
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&l); err != nil {
			return events, sum, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		if l.Seq == nil {
			return events, sum, fmt.Errorf("obs: trace line %d: missing seq", lineNo)
		}
		if *l.Seq != wantSeq {
			return events, sum, fmt.Errorf("obs: trace line %d: seq %d, want %d (gap or reorder)", lineNo, *l.Seq, wantSeq)
		}
		wantSeq++
		if l.TsNS < lastTs {
			return events, sum, fmt.Errorf("obs: trace line %d: ts_ns %d precedes previous %d", lineNo, l.TsNS, lastTs)
		}
		lastTs = l.TsNS
		stage, ok := StageFromString(l.Stage)
		if !ok {
			return events, sum, fmt.Errorf("obs: trace line %d: unknown stage %q", lineNo, l.Stage)
		}
		ev := TraceEvent{Event: Event{Stage: stage, Label: l.Label}, Seq: *l.Seq, TsNS: l.TsNS}
		switch l.Ev {
		case "begin":
			ev.Kind = KindBegin
			openSpans[spanKey{stage, l.Label}]++
		case "end":
			if l.WallNS == nil || *l.WallNS < 0 {
				return events, sum, fmt.Errorf("obs: trace line %d: end event needs wall_ns >= 0", lineNo)
			}
			ev.Kind = KindEnd
			ev.WallNS = *l.WallNS
			openSpans[spanKey{stage, l.Label}]--
		case "count":
			ctr, ok := CounterFromString(l.Counter)
			if !ok {
				return events, sum, fmt.Errorf("obs: trace line %d: unknown counter %q", lineNo, l.Counter)
			}
			if l.Value == nil {
				return events, sum, fmt.Errorf("obs: trace line %d: count event needs a value", lineNo)
			}
			ev.Kind = KindCount
			ev.Counter = ctr
			ev.Value = *l.Value
		case "round_begin":
			if l.Round == nil || *l.Round < InitRound {
				return events, sum, fmt.Errorf("obs: trace line %d: round_begin needs round >= %d", lineNo, InitRound)
			}
			ev.Kind = KindRoundBegin
			ev.Round = *l.Round
			openRounds[roundKey{stage, *l.Round}]++
		case "round_end":
			if l.Round == nil || *l.Round < InitRound {
				return events, sum, fmt.Errorf("obs: trace line %d: round_end needs round >= %d", lineNo, InitRound)
			}
			if l.Stats == nil {
				return events, sum, fmt.Errorf("obs: trace line %d: round_end needs stats", lineNo)
			}
			rs := *l.Stats
			if rs.Sent < 0 || rs.Delivered < 0 || rs.Dropped < 0 || rs.Duplicated < 0 || rs.Delayed < 0 || rs.Active < 0 {
				return events, sum, fmt.Errorf("obs: trace line %d: negative round stats", lineNo)
			}
			ev.Kind = KindRoundEnd
			ev.Round = *l.Round
			ev.Stats = rs
			openRounds[roundKey{stage, *l.Round}]--
		case "trans":
			tr, ok := TransitionFromString(l.Trans)
			if !ok {
				return events, sum, fmt.Errorf("obs: trace line %d: unknown transition %q", lineNo, l.Trans)
			}
			if l.Node == nil || *l.Node < 0 {
				return events, sum, fmt.Errorf("obs: trace line %d: trans event needs node >= 0", lineNo)
			}
			if l.Value == nil {
				return events, sum, fmt.Errorf("obs: trace line %d: trans event needs a value", lineNo)
			}
			ev.Kind = KindTransition
			ev.Trans = tr
			ev.Node = *l.Node
			ev.Value = *l.Value
		default:
			return events, sum, fmt.Errorf("obs: trace line %d: unknown event kind %q", lineNo, l.Ev)
		}
		events = append(events, ev)
		sum.replay(ev.Event)
	}
	if err := sc.Err(); err != nil {
		return events, sum, fmt.Errorf("obs: trace: %w", err)
	}
	for k, n := range openSpans {
		if n != 0 {
			return events, sum, fmt.Errorf("obs: trace: %d unbalanced %s span(s) (label %q)", n, k.stage, k.label)
		}
	}
	for k, n := range openRounds {
		if n != 0 {
			return events, sum, fmt.Errorf("obs: trace: %d unbalanced %s round %d", n, k.stage, k.round)
		}
	}
	return events, sum, nil
}

// ValidateTrace parses a JSONL trace, checks it against the schema and
// ordering invariants (see ReadTrace), and returns its aggregate on
// success.
func ValidateTrace(r io.Reader) (*Metrics, error) {
	_, sum, err := ReadTrace(r)
	return sum, err
}

// detectorOwnedStages are the stages only boundary detectors emit — the
// scope of the Detector.Vocab() contract. Events under any other stage
// (surface steps, eval cells, serving spans, ...) belong to shared
// infrastructure and are exempt from per-detector vocabulary checks.
var detectorOwnedStages = [...]Stage{
	StageFrames, StageUBF, StageIFF, StageGrouping, StageCandidates,
}

// CheckVocab enforces the detector vocabulary contract on an aggregated
// trace: every counter, span or round recorded under a detector-owned
// stage must fall inside the declared stage list (a
// Detector.Vocab().Stages slice). ValidateTrace alone accepts any known
// stage/counter spelling, so a detector emitting under a stage it never
// declared — sv-contour counting under "ubf", say — would pass
// validation silently; this is the closing check cli.Session runs when
// the run's detector set is known.
func (m *Metrics) CheckVocab(declared []Stage) error {
	for _, s := range detectorOwnedStages {
		if slices.Contains(declared, s) {
			continue
		}
		for c := Counter(1); c < counterEnd; c++ {
			if m.counters[s][c].Load() != 0 {
				return vocabErr(s, "counter "+c.String())
			}
		}
		if m.Spans(s) > 0 {
			return vocabErr(s, "span")
		}
		if m.Rounds(s) > 0 {
			return vocabErr(s, "round")
		}
	}
	return nil
}

func vocabErr(s Stage, what string) error {
	return fmt.Errorf("obs: trace %s under stage %q, outside the declared detector vocabulary", what, s)
}
