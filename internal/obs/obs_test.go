package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestStageCounterStringRoundTrip: every stage and counter survives the
// String/FromString round trip, and unknown names are rejected.
func TestStageCounterStringRoundTrip(t *testing.T) {
	for s := Stage(1); s < stageEnd; s++ {
		name := s.String()
		if name == "stage?" {
			t.Fatalf("stage %d has no name", s)
		}
		back, ok := StageFromString(name)
		if !ok || back != s {
			t.Errorf("stage %d -> %q -> (%d, %v)", s, name, back, ok)
		}
	}
	for c := Counter(1); c < counterEnd; c++ {
		name := c.String()
		if name == "counter?" {
			t.Fatalf("counter %d has no name", c)
		}
		back, ok := CounterFromString(name)
		if !ok || back != c {
			t.Errorf("counter %d -> %q -> (%d, %v)", c, name, back, ok)
		}
	}
	if _, ok := StageFromString("bogus"); ok {
		t.Error("bogus stage accepted")
	}
	if _, ok := CounterFromString("bogus"); ok {
		t.Error("bogus counter accepted")
	}
	if Stage(200).String() != "stage?" || Counter(200).String() != "counter?" {
		t.Error("unknown enum values must print as placeholders")
	}
}

// TestNilObserverZeroAllocs: the no-op path — the one every unobserved
// pipeline run takes — must not allocate.
func TestNilObserverZeroAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		span := Start(nil, StageUBF)
		Add(nil, StageUBF, CtrBallsTested, 7)
		Add(nil, StageUBF, CtrNodesChecked, 0)
		RoundBegin(nil, StageIFF, 0)
		RoundEnd(nil, StageIFF, 0, RoundStats{Sent: 1})
		NodeTransition(nil, StageIFF, TransIFFRescind, 3, 1)
		inner := StartLabeled(nil, StageCell, "cell-label")
		inner.End()
		span.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-observer path allocates %.1f times per run, want 0", allocs)
	}
}

// TestMemSink: the in-memory sink aggregates counters, counts spans, and
// keeps arrival order.
func TestMemSink(t *testing.T) {
	m := &Mem{}
	span := Start(m, StageUBF)
	Add(m, StageUBF, CtrBallsTested, 5)
	Add(m, StageUBF, CtrBallsTested, 3)
	Add(m, StageIFF, CtrMsgsSent, 10)
	Add(m, StageUBF, CtrNodesChecked, 0) // silent: zero deltas never emit
	span.End()

	if got := m.Total(StageUBF, CtrBallsTested); got != 8 {
		t.Errorf("Total(ubf, balls) = %d, want 8", got)
	}
	if got := m.Total(StageIFF, CtrBallsTested); got != 0 {
		t.Errorf("Total(iff, balls) = %d, want 0", got)
	}
	if got := m.CounterTotal(CtrBallsTested); got != 8 {
		t.Errorf("CounterTotal(balls) = %d, want 8", got)
	}
	if got := m.Spans(StageUBF); got != 1 {
		t.Errorf("Spans(ubf) = %d, want 1", got)
	}
	if un := m.Unbalanced(); len(un) != 0 {
		t.Errorf("unexpected unbalanced stages: %v", un)
	}

	events := m.Events()
	if len(events) != 5 { // begin + 3 counts + end; the zero delta is silent
		t.Fatalf("got %d events, want 5: %+v", len(events), events)
	}
	if events[0].Kind != KindBegin || events[len(events)-1].Kind != KindEnd {
		t.Errorf("events not in arrival order: %+v", events)
	}
	if events[len(events)-1].WallNS < 0 {
		t.Errorf("end event has negative wall time: %+v", events[len(events)-1])
	}

	totals := m.Totals()
	if totals["ubf/balls_tested"] != 8 || totals["iff/msgs_sent"] != 10 {
		t.Errorf("Totals() roll-up wrong: %v", totals)
	}

	// An unended span shows up as unbalanced.
	m.Reset()
	if len(m.Events()) != 0 || m.Totals() != nil {
		t.Error("Reset did not clear the sink")
	}
	m.StageBegin(StageCDM, "")
	if un := m.Unbalanced(); len(un) != 1 || un[0] != StageCDM {
		t.Errorf("Unbalanced() = %v, want [cdm]", un)
	}
}

// TestMemSinkConcurrent: Mem must be safe under concurrent emitters (the
// eval.Engine pool writes from many workers). Run with -race.
func TestMemSinkConcurrent(t *testing.T) {
	m := &Mem{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				span := StartLabeled(m, StageCell, "w")
				Add(m, StageUBF, CtrBallsTested, 1)
				span.End()
			}
		}()
	}
	wg.Wait()
	if got := m.Total(StageUBF, CtrBallsTested); got != 800 {
		t.Errorf("concurrent total = %d, want 800", got)
	}
	if got := m.Spans(StageCell); got != 800 {
		t.Errorf("concurrent spans = %d, want 800", got)
	}
}

// TestTee: events fan out to both sinks; nil arguments collapse to the
// other observer without a wrapper.
func TestTee(t *testing.T) {
	a, b := &Mem{}, &Mem{}
	o := Tee(a, b)
	span := Start(o, StageSurface)
	Add(o, StageSurface, CtrLandmarks, 4)
	span.End()
	for i, m := range []*Mem{a, b} {
		if m.Total(StageSurface, CtrLandmarks) != 4 || m.Spans(StageSurface) != 1 {
			t.Errorf("sink %d missed events", i)
		}
	}
	if got := Tee(a, nil); got != Observer(a) {
		t.Error("Tee(a, nil) should return a directly")
	}
	if got := Tee(nil, b); got != Observer(b) {
		t.Error("Tee(nil, b) should return b directly")
	}
	if got := Tee(nil, nil); got != nil {
		t.Error("Tee(nil, nil) should be nil")
	}
}

// TestJSONLValidateRoundTrip: events written by the JSONL sink read back
// as a schema-valid trace with matching aggregates.
func TestJSONLValidateRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	det := Start(j, StageDetect)
	ubf := Start(j, StageUBF)
	Add(j, StageUBF, CtrBallsTested, 42)
	ubf.End()
	Add(j, StageIFF, CtrMsgsSent, 100)
	Add(j, StageIFF, CtrMsgsDelivered, 95)
	cell := StartLabeled(j, StageCell, "fig1/err=0.1")
	cell.End()
	det.End()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	events, sum, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round-trip trace invalid: %v\n%s", err, buf.String())
	}
	if len(events) != 9 { // 3 begin/end pairs + 3 counts
		t.Errorf("events = %d, want 9", len(events))
	}
	if sum.Spans(StageDetect) != 1 || sum.Spans(StageUBF) != 1 || sum.Spans(StageCell) != 1 {
		t.Errorf("span counts wrong: detect %d, ubf %d, cell %d",
			sum.Spans(StageDetect), sum.Spans(StageUBF), sum.Spans(StageCell))
	}
	if sum.Total(StageUBF, CtrBallsTested) != 42 {
		t.Errorf("balls total = %d, want 42", sum.Total(StageUBF, CtrBallsTested))
	}
	if sum.CounterTotal(CtrMsgsSent) != 100 {
		t.Errorf("msgs_sent total = %d, want 100", sum.CounterTotal(CtrMsgsSent))
	}
	if !strings.Contains(buf.String(), `"label":"fig1/err=0.1"`) {
		t.Errorf("labeled span not on the wire:\n%s", buf.String())
	}
}

// TestValidateTraceRejects: the validator catches malformed lines,
// unknown vocabulary, and unbalanced spans.
func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"unknown stage":   `{"ev":"begin","stage":"warp","seq":0,"ts_ns":1}`,
		"unknown ev":      `{"ev":"poke","stage":"ubf","seq":0,"ts_ns":1}`,
		"unknown counter": `{"ev":"count","stage":"ubf","counter":"wat","value":1,"seq":0,"ts_ns":1}`,
		"missing value":   `{"ev":"count","stage":"ubf","counter":"balls_tested","seq":0,"ts_ns":1}`,
		"missing wall_ns": `{"ev":"end","stage":"ubf","seq":0,"ts_ns":1}`,
		"unknown field":   `{"ev":"begin","stage":"ubf","seq":0,"ts_ns":1,"extra":true}`,
		"not json":        `begin ubf`,
		"unbalanced span": `{"ev":"begin","stage":"ubf","seq":0,"ts_ns":1}` + "\n",
		"missing seq":     `{"ev":"begin","stage":"ubf","ts_ns":1}`,
		"seq gap": `{"ev":"begin","stage":"ubf","seq":0,"ts_ns":1}` + "\n" +
			`{"ev":"end","stage":"ubf","wall_ns":5,"seq":2,"ts_ns":2}`,
		"seq not from zero": `{"ev":"begin","stage":"ubf","seq":1,"ts_ns":1}`,
		"ts regression": `{"ev":"begin","stage":"ubf","seq":0,"ts_ns":9}` + "\n" +
			`{"ev":"end","stage":"ubf","wall_ns":5,"seq":1,"ts_ns":3}`,
		"label mismatch": `{"ev":"begin","stage":"cell","label":"a","seq":0,"ts_ns":1}` + "\n" +
			`{"ev":"end","stage":"cell","label":"b","wall_ns":5,"seq":1,"ts_ns":2}`,
		"unbalanced round":   `{"ev":"round_begin","stage":"iff","round":0,"seq":0,"ts_ns":1}`,
		"round_end no stats": `{"ev":"round_end","stage":"iff","round":0,"seq":0,"ts_ns":1}`,
		"round below init":   `{"ev":"round_begin","stage":"iff","round":-2,"seq":0,"ts_ns":1}`,
		"negative round stats": `{"ev":"round_begin","stage":"iff","round":0,"seq":0,"ts_ns":1}` + "\n" +
			`{"ev":"round_end","stage":"iff","round":0,"stats":{"sent":-1,"delivered":0,"dropped":0,"duplicated":0,"delayed":0,"active":0},"seq":1,"ts_ns":2}`,
		"unknown trans": `{"ev":"trans","stage":"iff","trans":"warp","node":1,"value":0,"seq":0,"ts_ns":1}`,
		"trans no node": `{"ev":"trans","stage":"iff","trans":"iff_rescind","value":0,"seq":0,"ts_ns":1}`,
	}
	for name, trace := range cases {
		if _, err := ValidateTrace(strings.NewReader(trace)); err == nil {
			t.Errorf("%s accepted: %q", name, trace)
		}
	}
	// Balanced input with blank lines is fine.
	ok := "{\"ev\":\"begin\",\"stage\":\"ubf\",\"seq\":0,\"ts_ns\":1}\n\n{\"ev\":\"end\",\"stage\":\"ubf\",\"wall_ns\":5,\"seq\":1,\"ts_ns\":9}\n"
	if _, err := ValidateTrace(strings.NewReader(ok)); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

// TestReadTraceRoundTrip: flight-recorder events written by JSONL parse
// back as the same events with consecutive seq and aggregate rounds,
// transitions, and wall times.
func TestReadTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	span := Start(j, StageIFF)
	RoundBegin(j, StageIFF, InitRound)
	RoundEnd(j, StageIFF, InitRound, RoundStats{Sent: 4, Active: 4})
	RoundBegin(j, StageIFF, 0)
	NodeTransition(j, StageIFF, TransIFFRescind, 7, 2)
	RoundEnd(j, StageIFF, 0, RoundStats{Sent: 10, Delivered: 4, Dropped: 6, Active: 4})
	span.End()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	events, sum, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round-trip trace invalid: %v\n%s", err, buf.String())
	}
	if len(events) != 7 {
		t.Fatalf("got %d events, want 7", len(events))
	}
	for i, ev := range events {
		if ev.Seq != int64(i) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if sum.Rounds(StageIFF) != 2 {
		t.Errorf("Rounds(iff) = %d, want 2", sum.Rounds(StageIFF))
	}
	if sum.Transitions(TransIFFRescind) != 1 {
		t.Errorf("Transitions(iff_rescind) = %d, want 1", sum.Transitions(TransIFFRescind))
	}
	if wall := sum.Latency(StageIFF).SumNS; wall <= 0 {
		t.Errorf("iff wall = %d, want > 0", wall)
	}
	last := events[5]
	if last.Kind != KindRoundEnd || last.Round != 0 || last.Stats.Dropped != 6 {
		t.Errorf("round_end event mangled: %+v", last)
	}
	tr := events[4]
	if tr.Kind != KindTransition || tr.Trans != TransIFFRescind || tr.Node != 7 || tr.Value != 2 {
		t.Errorf("trans event mangled: %+v", tr)
	}
}

// TestTransitionStringRoundTrip: the transition vocabulary survives the
// String/FromString round trip.
func TestTransitionStringRoundTrip(t *testing.T) {
	for tr := Transition(1); tr < transitionEnd; tr++ {
		name := tr.String()
		if name == "trans?" {
			t.Fatalf("transition %d has no name", tr)
		}
		back, ok := TransitionFromString(name)
		if !ok || back != tr {
			t.Errorf("transition %d -> %q -> (%d, %v)", tr, name, back, ok)
		}
	}
	if _, ok := TransitionFromString("bogus"); ok {
		t.Error("bogus transition accepted")
	}
	if Transition(200).String() != "trans?" {
		t.Error("unknown transition must print as placeholder")
	}
}

// TestProfilerSmoke: the pprof leg writes both profile files.
func TestProfilerSmoke(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "prof")
	p, err := StartProfilePrefix(prefix)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to hold.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		info, err := os.Stat(prefix + suffix)
		if err != nil {
			t.Errorf("profile %s missing: %v", suffix, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("profile %s empty", suffix)
		}
	}
	// Zero-configured profilers are inert.
	empty, err := StartProfilePrefix("")
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Stop(); err != nil {
		t.Fatal(err)
	}
	var nilProf *Profiler
	if err := nilProf.Stop(); err != nil {
		t.Fatal(err)
	}
}
