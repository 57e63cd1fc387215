package obs

import "sync"

// EventKind distinguishes the event types a sink records.
type EventKind uint8

const (
	// KindBegin opens a span.
	KindBegin EventKind = iota + 1
	// KindEnd closes a span, carrying wall time.
	KindEnd
	// KindCount carries one counter increment.
	KindCount
	// KindRoundBegin opens one protocol round of the flight recorder.
	KindRoundBegin
	// KindRoundEnd closes a round, carrying its RoundStats.
	KindRoundEnd
	// KindTransition records one node state change.
	KindTransition
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindEnd:
		return "end"
	case KindCount:
		return "count"
	case KindRoundBegin:
		return "round_begin"
	case KindRoundEnd:
		return "round_end"
	case KindTransition:
		return "trans"
	}
	return "kind?"
}

// Event is one recorded observation, the common currency of the sinks and
// the JSONL trace schema.
type Event struct {
	Kind    EventKind
	Stage   Stage
	Label   string     // "" except for labeled (cell) spans
	Counter Counter    // KindCount only
	Value   int64      // counter delta (KindCount); transition payload (KindTransition)
	WallNS  int64      // span wall time (KindEnd only)
	Round   int        // KindRoundBegin/KindRoundEnd only
	Stats   RoundStats // KindRoundEnd only
	Trans   Transition // KindTransition only
	Node    int        // KindTransition only
}

// Mem is an in-memory sink for tests: it records every event in arrival
// order and tracks open spans for Unbalanced. Its aggregates (Total,
// Totals, CounterTotal, Spans, Rounds, Transitions, Latency) come from
// the Metrics it embeds. Safe for concurrent use. The zero value is
// ready.
type Mem struct {
	Metrics

	mu     sync.Mutex
	events []Event
	open   map[Stage]int // begun-but-unended spans per stage
}

// record appends one event under the lock and folds it into the
// embedded Metrics.
func (m *Mem) record(ev Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events = append(m.events, ev)
	switch ev.Kind {
	case KindBegin:
		if m.open == nil {
			m.open = make(map[Stage]int)
		}
		m.open[ev.Stage]++
	case KindEnd:
		if m.open != nil {
			m.open[ev.Stage]--
		}
	}
	m.Metrics.replay(ev)
}

// StageBegin implements Observer.
func (m *Mem) StageBegin(s Stage, label string) {
	m.record(Event{Kind: KindBegin, Stage: s, Label: label})
}

// StageEnd implements Observer.
func (m *Mem) StageEnd(s Stage, label string, wallNS int64) {
	m.record(Event{Kind: KindEnd, Stage: s, Label: label, WallNS: wallNS})
}

// Count implements Observer.
func (m *Mem) Count(s Stage, c Counter, delta int64) {
	m.record(Event{Kind: KindCount, Stage: s, Counter: c, Value: delta})
}

// RoundBegin implements Observer.
func (m *Mem) RoundBegin(s Stage, round int) {
	m.record(Event{Kind: KindRoundBegin, Stage: s, Round: round})
}

// RoundEnd implements Observer.
func (m *Mem) RoundEnd(s Stage, round int, rs RoundStats) {
	m.record(Event{Kind: KindRoundEnd, Stage: s, Round: round, Stats: rs})
}

// NodeTransition implements Observer.
func (m *Mem) NodeTransition(s Stage, t Transition, node int, value int64) {
	m.record(Event{Kind: KindTransition, Stage: s, Trans: t, Node: node, Value: value})
}

// Events returns a copy of everything recorded, in arrival order.
func (m *Mem) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Unbalanced reports stages with begun-but-never-ended spans — an
// instrumentation bug the tests assert against.
func (m *Mem) Unbalanced() []Stage {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Stage
	for s := Stage(1); s < stageEnd; s++ {
		if m.open[s] != 0 {
			out = append(out, s)
		}
	}
	return out
}

// Reset drops everything recorded.
func (m *Mem) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events, m.open = nil, nil
	m.Metrics = Metrics{}
}

// tee fans every event out to two observers.
type tee struct{ a, b Observer }

// Tee returns an observer forwarding to both arguments; either may be
// nil, in which case the other is returned directly.
func Tee(a, b Observer) Observer {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return tee{a, b}
}

func (t tee) StageBegin(s Stage, label string) {
	t.a.StageBegin(s, label)
	t.b.StageBegin(s, label)
}

func (t tee) StageEnd(s Stage, label string, wallNS int64) {
	t.a.StageEnd(s, label, wallNS)
	t.b.StageEnd(s, label, wallNS)
}

func (t tee) Count(s Stage, c Counter, delta int64) {
	t.a.Count(s, c, delta)
	t.b.Count(s, c, delta)
}

func (t tee) RoundBegin(s Stage, round int) {
	t.a.RoundBegin(s, round)
	t.b.RoundBegin(s, round)
}

func (t tee) RoundEnd(s Stage, round int, rs RoundStats) {
	t.a.RoundEnd(s, round, rs)
	t.b.RoundEnd(s, round, rs)
}

func (t tee) NodeTransition(s Stage, tr Transition, node int, value int64) {
	t.a.NodeTransition(s, tr, node, value)
	t.b.NodeTransition(s, tr, node, value)
}
