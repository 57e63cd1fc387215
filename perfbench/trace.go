package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one recorded stage interval. Times are nanoseconds since the
// recorder's epoch, read from the monotonic clock at the callbacks.
type span struct {
	Stage  string `json:"stage"`
	Label  string `json:"label,omitempty"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at top level
	Req    int    `json:"req"`    // request ID, -1 outside any request
	Begin  int64  `json:"begin_ns"`
	End    int64  `json:"end_ns"`
}

// recorder is the benchmark's own obs.Observer. It keeps every span in
// memory with exact begin/end times, its parent and the request that caused
// it, and sums counters per (stage, counter). Spans nest per goroutine: the
// pipeline opens and closes its stage spans on the calling goroutine, so a
// per-goroutine stack recovers the parent even when several HTTP requests
// are in flight at once.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	stacks map[uint64][]int // goroutine → open span indices
	reqs   map[uint64]int   // goroutine → request it is serving
	counts map[string]int64 // "stage/counter" → total
}

func newRecorder() *recorder {
	return &recorder{
		epoch:  time.Now(),
		stacks: make(map[uint64][]int),
		reqs:   make(map[uint64]int),
		counts: make(map[string]int64),
	}
}

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 123 [running]:"). It is only paid in traced runs.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

func (r *recorder) StageBegin(s obs.Stage, label string) {
	g := goid()
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if st := r.stacks[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	req, ok := r.reqs[g]
	if !ok {
		req = -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Stage: s.String(), Label: label, ID: id, Parent: parent, Req: req, Begin: t, End: -1})
	r.stacks[g] = append(r.stacks[g], id)
}

func (r *recorder) StageEnd(s obs.Stage, label string, wallNS int64) {
	g := goid()
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stacks[g]
	// Close the innermost open span of this stage (obs.Observer contract).
	for k := len(st) - 1; k >= 0; k-- {
		if sp := &r.spans[st[k]]; sp.Stage == s.String() && sp.End < 0 {
			sp.End = t
			r.stacks[g] = append(st[:k], st[k+1:]...)
			break
		}
	}
	if len(r.stacks[g]) == 0 {
		delete(r.stacks, g)
	}
}

func (r *recorder) Count(s obs.Stage, c obs.Counter, delta int64) {
	r.mu.Lock()
	r.counts[s.String()+"/"+c.String()] += delta
	r.mu.Unlock()
}

func (r *recorder) RoundBegin(obs.Stage, int)                            {}
func (r *recorder) RoundEnd(obs.Stage, int, obs.RoundStats)              {}
func (r *recorder) NodeTransition(obs.Stage, obs.Transition, int, int64) {}

// withRequest wraps an HTTP handler so every span the request's goroutine
// opens carries the request ID the load generator put in X-Request-Id.
func (r *recorder) withRequest(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.Atoi(req.Header.Get("X-Request-Id"))
		if err != nil {
			id = -1
		}
		g := goid()
		r.mu.Lock()
		r.reqs[g] = id
		r.mu.Unlock()
		defer func() {
			r.mu.Lock()
			delete(r.reqs, g)
			r.mu.Unlock()
		}()
		h.ServeHTTP(w, req)
	})
}

// closed returns a copy of the finished spans.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, sp := range r.spans {
		if sp.End >= 0 {
			out = append(out, sp)
		}
	}
	return out
}

func (r *recorder) count(key string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[key]
}

// selfNS maps each span's ID to its duration minus the part of it its
// child spans cover, in nanoseconds. Children of one span run one after
// another on the parent's goroutine, so their durations do not overlap.
func selfNS(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, sp := range spans {
		self[sp.ID] += sp.End - sp.Begin
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.End - sp.Begin
		}
	}
	return self
}

// selfTimes sums each stage's self time, in seconds.
func selfTimes(spans []span) map[string]float64 {
	self := selfNS(spans)
	out := make(map[string]float64)
	for _, sp := range spans {
		out[sp.Stage] += float64(self[sp.ID]) / 1e9
	}
	return out
}

// totalTimes sums each stage's inclusive span durations, in seconds.
func totalTimes(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, sp := range spans {
		out[sp.Stage] += float64(sp.End-sp.Begin) / 1e9
	}
	return out
}

// durations lists the inclusive durations of one stage's spans, in
// milliseconds, in recording order.
func durations(spans []span, stage string) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Stage == stage {
			out = append(out, float64(sp.End-sp.Begin)/1e6)
		}
	}
	return out
}

// spanLog collects every traced phase's spans for writing at exit.
type spanLog struct {
	phases []string
	spans  [][]span
}

func (l *spanLog) add(phase string, spans []span) {
	l.phases = append(l.phases, phase)
	l.spans = append(l.spans, spans)
}

// write dumps the spans as JSON lines, one span per line tagged with its
// phase.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, phase := range l.phases {
		for _, sp := range l.spans[i] {
			if err := enc.Encode(struct {
				Phase string `json:"phase"`
				span
			}{phase, sp}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
