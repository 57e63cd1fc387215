// Package metrics evaluates boundary-detection output against ground
// truth, producing the quantities the paper's evaluation reports: the
// found/correct/mistaken/missing counts of Figs. 1(g) and 11(a) and the
// hop-distance distributions of mistaken and missing nodes of Figs. 1(h),
// 1(i), 11(b) and 11(c).
package metrics

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
)

// evalScratch pools the BFS state and source buffer of the hop-histogram
// measurements: evaluation sweeps (Fig. 11) call them once per scenario per
// error level, and the fresh distance-slice-per-call version made the
// metrics pass show up in sweep profiles.
type evalScratch struct {
	bfs  graph.Scratch
	srcs []int
}

var evalPool = sync.Pool{New: func() any { return new(evalScratch) }}

// ErrLengthMismatch is returned when masks have different lengths.
var ErrLengthMismatch = errors.New("metrics: masks must have equal length")

// Classification counts detection outcomes against ground truth.
type Classification struct {
	Nodes        int
	TrueBoundary int
	Found        int // nodes the algorithm reported
	Correct      int // reported ∩ true
	Mistaken     int // reported \ true
	Missing      int // true \ reported
}

// Classify compares a detection mask against ground truth.
func Classify(truth, found []bool) (Classification, error) {
	if len(truth) != len(found) {
		return Classification{}, ErrLengthMismatch
	}
	c := Classification{Nodes: len(truth)}
	for i := range truth {
		if truth[i] {
			c.TrueBoundary++
		}
		switch {
		case found[i] && truth[i]:
			c.Found++
			c.Correct++
		case found[i]:
			c.Found++
			c.Mistaken++
		case truth[i]:
			c.Missing++
		}
	}
	return c, nil
}

// Precision is Correct / Found, or 1 when nothing was reported.
func (c Classification) Precision() float64 {
	if c.Found == 0 {
		return 1
	}
	return float64(c.Correct) / float64(c.Found)
}

// Recall is Correct / TrueBoundary, or 1 when there is nothing to find.
func (c Classification) Recall() float64 {
	if c.TrueBoundary == 0 {
		return 1
	}
	return float64(c.Correct) / float64(c.TrueBoundary)
}

// F1 is the harmonic mean of precision and recall.
func (c Classification) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String implements fmt.Stringer.
func (c Classification) String() string {
	return fmt.Sprintf("true=%d found=%d correct=%d mistaken=%d missing=%d (P=%.3f R=%.3f)",
		c.TrueBoundary, c.Found, c.Correct, c.Mistaken, c.Missing, c.Precision(), c.Recall())
}

// HopHistogram measures, for every query node, the hop distance (through
// the full network graph) to the nearest anchor node, and returns the
// counts at 1..maxHops hops plus the number of query nodes farther away or
// unreachable. hist[0] counts distance-1 nodes. Query nodes that are
// themselves anchors count at distance 0 and are reported separately.
func HopHistogram(g *graph.Graph, query []int, anchors []bool, maxHops int) (hist []int, atZero, beyond int) {
	es := evalPool.Get().(*evalScratch)
	defer evalPool.Put(es)
	es.srcs = es.srcs[:0]
	for i, a := range anchors {
		if a {
			es.srcs = append(es.srcs, i)
		}
	}
	g.BFSHopsScratch(&es.bfs, es.srcs, graph.All, -1)
	hist = make([]int, maxHops)
	for _, q := range query {
		d := es.bfs.Dist(q)
		switch {
		case d == 0:
			atZero++
		case d == graph.Unreachable || d > maxHops:
			beyond++
		default:
			hist[d-1]++
		}
	}
	return hist, atZero, beyond
}

// HopStats is a hop-distance histogram: Hist[k] counts query nodes whose
// nearest anchor is k+1 hops away, AtZero counts query nodes that are
// anchors themselves, Beyond counts nodes farther than len(Hist) hops or
// unreachable. Raw counts are kept so multi-scenario aggregates (Fig. 11)
// can be summed before normalizing.
type HopStats struct {
	Hist   []int
	AtZero int
	Beyond int
}

// Total returns the query-set size the stats describe.
func (h HopStats) Total() int {
	t := h.AtZero + h.Beyond
	for _, c := range h.Hist {
		t += c
	}
	return t
}

// Fractions normalizes the histogram to fractions of the query set (the
// quantities plotted in Figs. 1(h), 1(i), 11(b), 11(c)). An empty query
// set yields all zeros.
func (h HopStats) Fractions() (frac []float64, beyondFrac float64) {
	frac = make([]float64, len(h.Hist))
	total := h.Total()
	if total == 0 {
		return frac, 0
	}
	for i, c := range h.Hist {
		frac[i] = float64(c) / float64(total)
	}
	return frac, float64(h.Beyond) / float64(total)
}

// Add accumulates another histogram with the same range into h.
func (h *HopStats) Add(o HopStats) error {
	if len(h.Hist) == 0 {
		h.Hist = make([]int, len(o.Hist))
	}
	if len(h.Hist) != len(o.Hist) {
		return errors.New("metrics: hop histogram ranges differ")
	}
	for i, c := range o.Hist {
		h.Hist[i] += c
	}
	h.AtZero += o.AtZero
	h.Beyond += o.Beyond
	return nil
}

// HopStatsFor measures the hop distance from each query node to the
// nearest anchor and bins the outcome.
func HopStatsFor(g *graph.Graph, query []int, anchors []bool, maxHops int) HopStats {
	hist, atZero, beyond := HopHistogram(g, query, anchors, maxHops)
	return HopStats{Hist: hist, AtZero: atZero, Beyond: beyond}
}

// Report bundles a classification with the mistaken/missing hop
// histograms — one figure-row of the paper's evaluation.
type Report struct {
	Classification
	// MistakenHops bins each mistaken node by the hop distance to its
	// nearest correctly identified boundary node.
	MistakenHops HopStats
	// MissingHops bins each missing boundary node the same way.
	MissingHops HopStats
}

// Add accumulates another report (e.g. a different scenario at the same
// error level) into r — how the Fig. 11 aggregates are produced.
func (r *Report) Add(o Report) error {
	r.Nodes += o.Nodes
	r.TrueBoundary += o.TrueBoundary
	r.Found += o.Found
	r.Correct += o.Correct
	r.Mistaken += o.Mistaken
	r.Missing += o.Missing
	if err := r.MistakenHops.Add(o.MistakenHops); err != nil {
		return err
	}
	return r.MissingHops.Add(o.MissingHops)
}

// Evaluate produces a full report for one detection run. maxHops sets the
// histogram range (the paper uses 3).
func Evaluate(g *graph.Graph, truth, found []bool, maxHops int) (Report, error) {
	c, err := Classify(truth, found)
	if err != nil {
		return Report{}, err
	}
	correct := make([]bool, len(truth))
	var mistaken, missing []int
	for i := range truth {
		switch {
		case found[i] && truth[i]:
			correct[i] = true
		case found[i]:
			mistaken = append(mistaken, i)
		case truth[i]:
			missing = append(missing, i)
		}
	}
	r := Report{Classification: c}
	r.MistakenHops = HopStatsFor(g, mistaken, correct, maxHops)
	r.MissingHops = HopStatsFor(g, missing, correct, maxHops)
	return r, nil
}
