package obs

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// TestHistBucketMath pins the log-linear layout: monotone bucket
// indices, lower bounds that invert bucketOf, and a relative
// quantization error bounded by one sub-bucket (12.5%).
func TestHistBucketMath(t *testing.T) {
	if got := histBucketOf(0); got != 0 {
		t.Fatalf("bucketOf(0) = %d", got)
	}
	if got := histBucketOf(-5); got != 0 {
		t.Fatalf("bucketOf(-5) = %d", got)
	}
	last := -1
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 1 << 20, 1 << 40, 1<<62 + 12345, 1<<63 - 1} {
		b := histBucketOf(v)
		if b < 0 || b >= HistBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if b < last {
			t.Fatalf("bucketOf not monotone at %d", v)
		}
		last = b
		low := BucketLow(b)
		if low > v {
			t.Fatalf("BucketLow(%d) = %d > value %d", b, low, v)
		}
		if v >= histLinear && float64(v-low)/float64(v) > 1.0/histSub {
			t.Fatalf("value %d quantized to %d: relative error > 1/%d", v, low, histSub)
		}
	}
	// Exhaustive inversion on a random sample.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := rng.Int63()
		b := histBucketOf(v)
		if lo, hi := BucketLow(b), BucketLow(b+1); v < lo || (b+1 < HistBuckets && v >= hi) {
			t.Fatalf("value %d outside its bucket %d [%d, %d)", v, b, lo, hi)
		}
	}
}

// TestHistQuantiles pins quantile lookup against a known distribution.
func TestHistQuantiles(t *testing.T) {
	var m Metrics
	for i := 1; i <= 100; i++ {
		m.StageEnd(StageUBF, "", int64(i)*1000) // 1µs..100µs
	}
	snap := m.Latency(StageUBF)
	if snap.Count() != 100 {
		t.Fatalf("count %d, want 100", snap.Count())
	}
	p50, p99 := snap.Quantile(0.50), snap.Quantile(0.99)
	if p50 < 40_000 || p50 > 50_000 {
		t.Fatalf("p50 = %d, want ~50µs within one sub-bucket", p50)
	}
	if p99 < 87_000 || p99 > 99_000 {
		t.Fatalf("p99 = %d, want ~99µs within one sub-bucket", p99)
	}
	if max := snap.Max(); max < 87_000 || max > 100_000 {
		t.Fatalf("max = %d, want ~100µs", max)
	}
	stats := snap.Stats()
	if stats.SumNS != 5050*1000 {
		t.Fatalf("sum = %d, want %d", stats.SumNS, 5050*1000)
	}
	if stats.P95NS < stats.P50NS || stats.P99NS < stats.P95NS || stats.MaxNS < stats.P99NS {
		t.Fatalf("quantiles not monotone: %+v", stats)
	}
	if (HistSnapshot{}).Quantile(0.99) != 0 || (HistSnapshot{}).Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// TestMetricsHotPathZeroAllocs: the enabled always-on sink must add zero
// allocations on the record hot path — the guarantee that lets boundaryd
// leave capture on under production load.
func TestMetricsHotPathZeroAllocs(t *testing.T) {
	var m Metrics
	var o Observer = &m
	allocs := testing.AllocsPerRun(1000, func() {
		o.Count(StageUBF, CtrBallsTested, 7)
		o.Count(StageIFF, CtrMsgsSent, 3)
		o.StageEnd(StageUBF, "", 12345)
		o.RoundEnd(StageIFF, 3, RoundStats{Sent: 1})
		o.NodeTransition(StageIFF, TransIFFRescind, 3, 1)
	})
	if allocs != 0 {
		t.Fatalf("metrics hot path allocates %.1f times per run, want 0", allocs)
	}
	// The helper layer on a Metrics observer stays allocation-free too.
	allocs = testing.AllocsPerRun(1000, func() {
		Add(o, StageUBF, CtrNodesChecked, 2)
		sp := Start(o, StageGrouping)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("obs helpers over Metrics allocate %.1f times per run, want 0", allocs)
	}
}

// TestMetricsLoadRoundTrip: Load reads Snapshot's format back. A
// randomized event stream — unknown enum values included, which clamp
// into the slot Snapshot never writes — snapshots to a document that
// loads into a fresh Metrics and snapshots back to the same document,
// latency buckets included. Keys outside the vocabulary stay skipped.
func TestMetricsLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m Metrics
	for i := 0; i < 2000; i++ {
		s := Stage(rng.Intn(int(stageEnd) + 3)) // 0 and past-the-end too
		switch rng.Intn(4) {
		case 0:
			m.Count(s, Counter(rng.Intn(int(counterEnd)+3)), rng.Int63n(1000)-100)
		case 1:
			m.StageEnd(s, "", rng.Int63n(1<<40))
		case 2:
			m.RoundEnd(s, rng.Intn(9), RoundStats{})
		default:
			m.NodeTransition(s, Transition(rng.Intn(int(transitionEnd)+3)), 0, 0)
		}
	}
	doc := m.Snapshot(nil)
	if len(doc) < 100 {
		t.Fatalf("snapshot holds only %d metrics; the stream is too thin to test", len(doc))
	}
	var back Metrics
	back.Load(doc)
	if got := back.Snapshot(nil); !reflect.DeepEqual(got, doc) {
		t.Fatalf("Load(Snapshot) snapshots back to a different document:\n got  %v\n want %v", got, doc)
	}

	skipped := []Metric{
		{Key: "ts/unix_ns", Value: 5},
		{Key: "ctr/warp/balls_tested", Value: 1},
		{Key: "ctr/ubf/bogus", Value: 1},
		{Key: "ctr/ubf", Value: 1},
		{Key: "ctr/ubf/balls_tested/x", Value: 1},
		{Key: "ctr//", Value: 1},
		{Key: "lat/ubf/b-1", Value: 1},
		{Key: "lat/ubf/b01", Value: 1},
		{Key: "lat/ubf/b+1", Value: 1},
		{Key: "lat/ubf/b" + strconv.Itoa(HistBuckets), Value: 1},
		{Key: "lat/ubf/max", Value: 1},
		{Key: "lat/stage?/sum", Value: 1},
		{Key: "rounds/stage?", Value: 1},
		{Key: "spans/", Value: 1},
		{Key: "spans/ubf/x", Value: 1},
		{Key: "trans/trans?", Value: 1},
		{Key: "trans/", Value: 1},
		{Key: "bogus", Value: 1},
	}
	var none Metrics
	none.Load(skipped)
	if got := none.Snapshot(nil); len(got) != 0 {
		t.Fatalf("keys outside the vocabulary were loaded: %v", got)
	}
	var mixed Metrics
	mixed.Load(append(append([]Metric(nil), doc...), skipped...))
	if got := mixed.Snapshot(nil); !reflect.DeepEqual(got, doc) {
		t.Fatal("skipped keys disturbed the loaded document")
	}
}

// TestMetricsSnapshotSortedNonzero: snapshots are key-sorted, skip
// zero-valued slots, and survive the clamp on unknown enum values.
func TestMetricsSnapshotSortedNonzero(t *testing.T) {
	var m Metrics
	m.Count(StageUBF, CtrBallsTested, 5)
	m.Count(StageUBF, CtrNodesChecked, 0) // zero delta recorded is still zero total
	m.Count(Stage(250), Counter(250), 3)  // clamps to slot 0, never surfaces
	m.StageEnd(StageServe, "GET /v1/metrics", 999)
	m.RoundEnd(StageIFF, 0, RoundStats{})
	m.NodeTransition(StageIFF, TransIFFRescind, 1, 0)
	m.NodeTransition(StageIFF, Transition(99), 1, 0)

	doc := m.Snapshot(nil)
	if len(doc) == 0 {
		t.Fatal("empty snapshot")
	}
	keys := map[string]int64{}
	for i, mt := range doc {
		if mt.Value == 0 {
			t.Fatalf("zero-valued metric %q in snapshot", mt.Key)
		}
		if i > 0 && doc[i-1].Key >= mt.Key {
			t.Fatalf("snapshot not strictly sorted at %q", mt.Key)
		}
		keys[mt.Key] = mt.Value
	}
	for _, want := range []string{"ctr/ubf/balls_tested", "lat/serve/sum", "spans/serve", "rounds/iff", "trans/iff_rescind"} {
		if _, ok := keys[want]; !ok {
			t.Fatalf("snapshot missing %q (have %v)", want, keys)
		}
	}
	if keys["ctr/ubf/balls_tested"] != 5 {
		t.Fatalf("balls_tested = %d", keys["ctr/ubf/balls_tested"])
	}
	// Reusing the buffer must not leak prior entries.
	doc2 := m.Snapshot(doc[:0])
	if len(doc2) != len(doc) {
		t.Fatalf("snapshot reuse changed length: %d vs %d", len(doc2), len(doc))
	}
}

// TestMetricsConcurrentRecord: racing writers against a reader is safe
// and loses nothing once quiesced (run under -race in CI).
func TestMetricsConcurrentRecord(t *testing.T) {
	var m Metrics
	const workers, per = 8, 1000
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				m.Snapshot(nil)
				m.LatencySummaries()
			}
		}
	}()
	var wg chan struct{} = make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				m.Count(StageUBF, CtrBallsTested, 1)
				m.StageEnd(StageUBF, "", int64(i))
			}
			wg <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		select {
		case <-wg:
		case <-time.After(30 * time.Second):
			t.Fatal("timeout")
		}
	}
	close(done)
	if got := m.Total(StageUBF, CtrBallsTested); got != workers*per {
		t.Fatalf("lost updates: %d, want %d", got, workers*per)
	}
	if got := m.Latency(StageUBF).Count(); got != workers*per {
		t.Fatalf("lost spans: %d, want %d", got, workers*per)
	}
}
