package ftdc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// doc builds a key-sorted document from pairs.
func doc(kv ...any) []obs.Metric {
	var out []obs.Metric
	for i := 0; i < len(kv); i += 2 {
		out = append(out, obs.Metric{Key: kv[i].(string), Value: int64(kv[i+1].(int))})
	}
	return out
}

// TestFTDCRoundTrip: every written sample decodes back exactly —
// including schema changes mid-stream, negative values, and extreme
// deltas.
func TestFTDCRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	samples := [][]obs.Metric{
		doc("a", 1, "b", 100),
		doc("a", 2, "b", 90),                 // plain delta
		doc("a", 2, "b", 90, "c", 1),         // key appears: schema change
		doc("a", -50, "b", 90, "c", 1000000), // negative + big jump
		doc("b", 91, "c", 1000001),           // key disappears: schema change
		doc("b", 91, "c", 1000001),           // zero delta
	}
	for _, s := range samples {
		if err := w.WriteSample(s); err != nil {
			t.Fatal(err)
		}
	}
	if w.Samples != len(samples) {
		t.Fatalf("writer counted %d samples, want %d", w.Samples, len(samples))
	}
	if w.SchemaWrites != 3 {
		t.Fatalf("writer counted %d schema writes, want 3", w.SchemaWrites)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(samples))
	}
	for i, s := range samples {
		if !reflect.DeepEqual(got[i].Metrics, s) {
			t.Fatalf("sample %d: got %v, want %v", i, got[i].Metrics, s)
		}
	}
}

// TestFTDCRoundTripRandom drives the codec over randomized growing key
// sets and walks — the property the fuzz target can only probe.
func TestFTDCRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		vals := map[string]int64{}
		var want [][]obs.Metric
		for s := 0; s < 50; s++ {
			if rng.Intn(4) == 0 || len(vals) == 0 {
				vals[fmt.Sprintf("k%03d", len(vals))] = 0
			}
			var d []obs.Metric
			for k := range vals {
				vals[k] += rng.Int63n(2001) - 1000
				d = append(d, obs.Metric{Key: k, Value: vals[k]})
			}
			sortMetrics(d)
			if err := w.WriteSample(d); err != nil {
				t.Fatal(err)
			}
			want = append(want, append([]obs.Metric(nil), d...))
		}
		got, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d samples, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i].Metrics, want[i]) {
				t.Fatalf("trial %d sample %d diverged", trial, i)
			}
		}
	}
}

func sortMetrics(d []obs.Metric) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j-1].Key > d[j].Key; j-- {
			d[j-1], d[j] = d[j], d[j-1]
		}
	}
}

// TestFTDCWriterRejectsUnsorted: the canonical-order contract is
// enforced, not assumed.
func TestFTDCWriterRejectsUnsorted(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.WriteSample(doc("b", 1, "a", 2)); err == nil {
		t.Fatal("unsorted document accepted")
	}
	if err := w.WriteSample(doc("a", 1, "a", 2)); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

// TestFTDCReaderDiagnoses: truncation, corruption, and protocol
// violations all surface as errors, never panics or silent success.
func TestFTDCReaderDiagnoses(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.WriteSample(doc("x", 10*i, "y", i)); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(full); cut++ {
			if _, err := ReadAll(bytes.NewReader(full[:len(full)-cut])); err == nil && cut > 0 {
				// A cut landing exactly on a record boundary decodes the
				// prefix cleanly — that is legitimate (the last record is
				// whole). Verify it decoded fewer samples in that case.
				got, _ := ReadAll(bytes.NewReader(full[:len(full)-cut]))
				if len(got) >= 3 {
					t.Fatalf("cut %d: decoded %d samples from a truncated stream", cut, len(got))
				}
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := 9; i < len(full); i += 3 { // skip header; flip every 3rd byte
			mut := append([]byte(nil), full...)
			mut[i] ^= 0x40
			got, err := ReadAll(bytes.NewReader(mut))
			if err == nil && len(got) == 3 {
				// The flip must not produce a clean full-length decode
				// with altered content equal in length; compare values.
				orig, _ := ReadAll(bytes.NewReader(full))
				if reflect.DeepEqual(got, orig) {
					continue // flip in dead space is impossible here, but be safe
				}
				t.Fatalf("byte %d flip: corrupt stream decoded cleanly", i)
			}
		}
	})
	t.Run("badmagic", func(t *testing.T) {
		mut := append([]byte(nil), full...)
		mut[0] = 'X'
		if _, err := ReadAll(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("bad magic: %v", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := ReadAll(bytes.NewReader(nil)); err == nil {
			t.Fatal("empty stream accepted")
		}
	})
}

// TestRingRotationEviction: segments rotate at the size bound, the
// oldest is evicted at the count bound, and the surviving ring decodes
// cleanly with every segment self-contained.
func TestRingRotationEviction(t *testing.T) {
	dir := t.TempDir()
	ring, err := OpenRing(dir, RingOptions{MaxSegmentBytes: 256, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Metrics
	for i := 0; i < 200; i++ {
		m.Count(obs.StageUBF, obs.CtrBallsTested, 13)
		m.StageEnd(obs.StageUBF, "", int64(1000+i))
		if err := ring.WriteSample(m.Snapshot(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}
	st := ring.Stats()
	if st.Samples != 200 || st.Segments < 4 || st.Evicted == 0 {
		t.Fatalf("ring stats %+v: want 200 samples, >3 segments, evictions", st)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "ftdc.*.seg"))
	if err != nil || len(segs) > 3 || len(segs) == 0 {
		t.Fatalf("segment files on disk: %v (err %v), want 1..3", segs, err)
	}
	samples, dst, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Segments != len(segs) || dst.Samples != len(samples) || len(samples) == 0 {
		t.Fatalf("decode stats %+v over %d files", dst, len(segs))
	}
	// The final sample carries the full totals even though early
	// segments were evicted: the counter is cumulative.
	last := samples[len(samples)-1]
	if v, ok := last.Value("ctr/ubf/balls_tested"); !ok || v != 200*13 {
		t.Fatalf("final balls_tested = %d (ok=%v), want %d", v, ok, 200*13)
	}
	// Reopening the directory continues the sequence without clobbering.
	ring2, err := OpenRing(dir, RingOptions{MaxSegmentBytes: 256, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ring2.WriteSample(doc("z", 1)); err != nil {
		t.Fatal(err)
	}
	if err := ring2.Close(); err != nil {
		t.Fatal(err)
	}
	segs2, _ := filepath.Glob(filepath.Join(dir, "ftdc.*.seg"))
	if len(segs2) > 3 {
		t.Fatalf("reopened ring exceeded the segment cap: %v", segs2)
	}
}

// TestSamplerExactFinalSample: a sampler capturing a Metrics teed with
// an in-memory sink produces a ring whose decoded final sample matches
// the Mem totals exactly — the acceptance gate of the capture layer.
func TestSamplerExactFinalSample(t *testing.T) {
	dir := t.TempDir()
	ring, err := OpenRing(dir, RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Metrics
	mem := &obs.Mem{}
	o := obs.Tee(&m, mem)
	s := StartSampler(&m, ring, 20*time.Millisecond)

	rng := rand.New(rand.NewSource(3))
	deadline := time.Now().Add(120 * time.Millisecond)
	for time.Now().Before(deadline) {
		obs.Add(o, obs.StageIFF, obs.CtrMsgsSent, rng.Int63n(50))
		obs.Add(o, obs.StageServe, obs.CtrDeltas, 1)
		sp := obs.Start(o, obs.StageIncremental)
		sp.End()
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Samples < 2 {
		t.Fatalf("sampler wrote %d samples, want >= 2 (initial + final)", st.Samples)
	}

	samples, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var final obs.Metrics
	final.Load(samples[len(samples)-1].Metrics)
	got := final.Totals()
	want := mem.Totals()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded final counters %v\n  != in-memory sink %v", got, want)
	}
	// Latency histogram: count equals completed incremental spans, and
	// the quantile summary is populated.
	lat := final.Latency(obs.StageIncremental)
	if int(lat.Count()) != mem.Spans(obs.StageIncremental) {
		t.Fatalf("decoded %d incremental spans, mem has %d", lat.Count(), mem.Spans(obs.StageIncremental))
	}
	if st := lat.Stats(); st.P50NS < 0 || st.P99NS < st.P50NS || st.Count == 0 {
		t.Fatalf("bad decoded latency stats %+v", st)
	}
	if !reflect.DeepEqual(final.LatencySummaries(), mem.LatencySummaries()) {
		t.Fatal("decoded latency summaries differ from the in-memory sink's")
	}
	// Monotonicity: cumulative counters never decrease across samples.
	var prev int64 = math.MinInt64
	for _, smp := range samples {
		v, _ := smp.Value("ctr/serve/deltas_applied")
		if v < prev {
			t.Fatalf("deltas_applied went backwards: %d after %d", v, prev)
		}
		prev = v
	}
}

// TestRingClosedWrite: writes after Close fail loudly.
func TestRingClosedWrite(t *testing.T) {
	ring, err := OpenRing(t.TempDir(), RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ring.WriteSample(doc("a", 1)); err == nil {
		t.Fatal("write after close succeeded")
	}
	if err := ring.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestReadDirEmpty: a directory with no segments is an error, not an
// empty success — a smoke gate must distinguish "no capture" from
// "clean capture".
func TestReadDirEmpty(t *testing.T) {
	if _, _, err := ReadDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, _, err := ReadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
	// Foreign files are ignored, not decoded.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDir(dir); err == nil {
		t.Fatal("dir with only foreign files accepted")
	}
}
