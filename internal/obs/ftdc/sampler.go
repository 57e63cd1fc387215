package ftdc

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// Sampler snapshots an *obs.Metrics into a Ring at a fixed interval: one
// sample immediately on start (so even sub-interval runs leave a
// record), one per tick, and one final exact sample on Stop after all
// emitters have quiesced. The capture path never touches the pipeline —
// the Metrics sink is the only shared state, and its record side is
// lock- and allocation-free — so sampling on cannot change verdicts.
type Sampler struct {
	m        *obs.Metrics
	ring     *Ring
	interval time.Duration

	mu   sync.Mutex
	buf  []obs.Metric
	err  error
	done chan struct{}
	wg   sync.WaitGroup
}

// StartSampler begins capturing m into ring every interval (minimum
// 10ms; 0 means 1s). The sampler owns the ring from here: Stop closes
// it.
func StartSampler(m *obs.Metrics, ring *Ring, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	s := &Sampler{m: m, ring: ring, interval: interval, done: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.done:
				return
			}
		}
	}()
	return s
}

// sample writes one snapshot; write errors are sticky — the capture
// layer must never take down the process it observes, so failures
// surface once, at Stop.
func (s *Sampler) sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.buf = s.m.Snapshot(s.buf[:0])
	// The timestamp key sorts after every metric family Snapshot
	// writes, so appending keeps the document key-sorted.
	s.buf = append(s.buf, obs.Metric{Key: "ts/unix_ns", Value: time.Now().UnixNano()})
	s.err = s.ring.WriteSample(s.buf)
}

// Stop writes the final sample, closes the ring, and returns the first
// capture error. The final sample is exact when every emitter has
// stopped before Stop is called.
func (s *Sampler) Stop() error {
	close(s.done)
	s.wg.Wait()
	s.sample()
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	if cerr := s.ring.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats exposes the ring's activity (for logs and gates).
func (s *Sampler) Stats() RingStats { return s.ring.Stats() }

// DirStats aggregates a decoded capture directory.
type DirStats struct {
	// Segments decoded, samples recovered, and schema records seen
	// across every segment.
	Segments      int `json:"segments"`
	Samples       int `json:"samples"`
	SchemaChanges int `json:"schema_changes"`
}

// ReadDir decodes every segment of a capture directory in write order,
// returning all samples plus the aggregate stats. Any undecodable
// segment fails the whole read — a production gate must notice
// corruption, not skip it.
func ReadDir(dir string) ([]Sample, DirStats, error) {
	r := &Ring{dir: dir}
	segs, err := r.segments()
	if err != nil {
		return nil, DirStats{}, err
	}
	if len(segs) == 0 {
		return nil, DirStats{}, fmt.Errorf("ftdc: no segments in %s", dir)
	}
	var out []Sample
	var stats DirStats
	for _, path := range segs {
		f, err := os.Open(path)
		if err != nil {
			return out, stats, err
		}
		rd := NewReader(f)
		for {
			smp, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return out, stats, fmt.Errorf("%s: %w", path, err)
			}
			out = append(out, smp)
			stats.Samples++
		}
		stats.SchemaChanges += rd.SchemaReads
		stats.Segments++
		f.Close()
	}
	return out, stats, nil
}
