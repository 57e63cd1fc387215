// Package core implements the paper's primary contribution: localized
// boundary-node identification for 3D wireless networks via Unit Ball
// Fitting (UBF, Sec. II-A) refined by Isolated Fragment Filtering (IFF,
// Sec. II-B), plus boundary grouping and a degree-threshold baseline.
//
// Everything here is localized in the paper's sense: each node decides from
// one-hop neighborhood information only (neighbor coordinates in a local
// frame, built either from true positions or from noisy measured distances
// via MDS), and the refinement phases use TTL-bounded local flooding.
package core

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// sortByScoreDesc orders ord by descending score with ascending-index
// tie-break. Neighborhood-sized inputs use insertion sort directly — the
// generic sort's indirect comparator calls cost as much as the comparisons
// at these sizes — falling back to the stdlib sort for large slices.
func sortByScoreDesc(ord []int, score []float64) {
	if len(ord) > 64 {
		slices.SortFunc(ord, func(a, b int) int {
			switch {
			case score[a] > score[b]:
				return -1
			case score[a] < score[b]:
				return 1
			default:
				return a - b
			}
		})
		return
	}
	for i := 1; i < len(ord); i++ {
		x := ord[i]
		sx := score[x]
		j := i - 1
		for j >= 0 {
			y := ord[j]
			sy := score[y]
			if sy > sx || (sy == sx && y < x) {
				break
			}
			ord[j+1] = y
			j--
		}
		ord[j+1] = x
	}
}

// UBFNodeResult reports one node's Unit Ball Fitting outcome.
type UBFNodeResult struct {
	// Boundary is true when the node found an empty unit ball touching
	// itself (Algorithm 1 output).
	Boundary bool
	// BallsTested counts candidate balls examined before deciding; the
	// Theorem 1 complexity study aggregates this.
	BallsTested int
	// NodesChecked counts point-in-ball tests performed.
	NodesChecked int
}

// FitEmptyBall runs the Unit Ball Fitting test (Algorithm 1 steps II–III)
// for one node in its local coordinate frame. coords holds the
// neighborhood's positions with the deciding node at index center; radius
// is the unit-ball radius r = 1+ε (in the same units as coords); tol is the
// strict-interior tolerance: a neighbor only invalidates a ball when it
// lies deeper than tol inside (per Definition 6, touching the surface does
// not count). Every coordinate doubles as a ball-defining candidate; use
// FitEmptyBallTolerances to restrict the contact pairs.
//
// It returns as soon as one empty ball is found (the node is a boundary
// node); otherwise it exhausts all Θ(ρ²) candidate balls.
func FitEmptyBall(coords []geom.Vec3, center int, radius, tol float64) UBFNodeResult {
	return FitEmptyBallTolerances(coords, center, nil, radius, uniformTol(tol))
}

// TolFunc returns the strict-interior tolerance for the coordinate at the
// given index. Per-point tolerances let the pipeline discount each known
// position by its own uncertainty: a node's one-hop frame members carry
// the frame's embedding residual, while stitched two-hop positions carry
// the (larger) patch-registration error.
type TolFunc func(index int) float64

func uniformTol(tol float64) TolFunc { return func(int) float64 { return tol } }

// FitEmptyBallTolerances is the pipeline's uncertainty-aware test: a
// candidate ball counts as empty when no point lies deeper inside than its
// own tolerance. The ball-defining contact pairs are restricted to the
// given indices into coords (the deciding node's one-hop neighbors in the
// pipeline: Algorithm 1 forms balls through the node and two one-hop
// neighbors, while emptiness is judged against every known coordinate —
// the full Θ(ρ) ball content of Theorem 1). candidates must not include
// center; nil means every index except center.
//
// Each call builds a fresh UBFScratch; hot loops should hold a scratch per
// worker and call its Fit method instead.
func FitEmptyBallTolerances(coords []geom.Vec3, center int, candidates []int, radius float64, tol TolFunc) UBFNodeResult {
	var s UBFScratch
	return s.Fit(coords, center, candidates, radius, tol)
}

// UBFScratch holds the reusable state of the Unit Ball Fitting hot path:
// the node-relative frame, the squared occupancy thresholds, the candidate
// ordering and the membership-scan order. A zero value is ready to use;
// after the first few Fit calls warm its buffers, the steady state performs
// no allocations. A scratch is not safe for concurrent use — the pipeline
// keeps one per worker.
type UBFScratch struct {
	rel   []geom.Vec3 // coords translated so the deciding node is the origin
	nn    []float64   // |rel[i]|², hoisted out of the pair loop
	occ2  []float64   // (max(radius-tol(i), 0))²: certain-occupant threshold
	cands []int       // candidate buffer for the nil-candidates case
	order []int       // candidates sorted by the try-empty-first heuristic
	score []float64   // ordering key, indexed by coordinate index
	scan  []int32     // membership-scan order: likeliest blockers first
}

// disableOrdering pins the candidate-pair order to the caller's. Tests flip
// it to check that the ordering heuristic is an invisible optimization.
var disableOrdering = false

// Fit runs the uncertainty-aware Unit Ball Fitting test using the scratch's
// buffers. Semantics are exactly FitEmptyBallTolerances'; only the work
// counters depend on the candidate ordering, never the Boundary verdict
// (Definition 6 asks whether *some* empty ball exists, so the outcome is
// independent of the order in which balls and points are examined).
func (s *UBFScratch) Fit(coords []geom.Vec3, center int, candidates []int, radius float64, tol TolFunc) UBFNodeResult {
	n := len(coords)

	// Everything below works in the frame translated so the deciding node
	// is the origin: ball centers come out of the pair solver relative to
	// the node, and membership tests never translate back. The squared
	// norms double as the pair loop's hoisted |b-a|² values. Cache the
	// squared occupancy thresholds once per node too: the inner loop runs
	// membership tests per ball and must not pay a closure call plus a
	// subtraction each time.
	s.rel = s.rel[:0]
	s.nn = s.nn[:0]
	s.occ2 = s.occ2[:0]
	a := coords[center]
	for i := 0; i < n; i++ {
		r := coords[i].Sub(a)
		s.rel = append(s.rel, r)
		s.nn = append(s.nn, r.Norm2())
		rr := radius - tol(i)
		if rr < 0 {
			rr = 0
		}
		s.occ2 = append(s.occ2, rr*rr)
	}

	if candidates == nil {
		s.cands = s.cands[:0]
		for j := 0; j < n; j++ {
			if j != center {
				s.cands = append(s.cands, j)
			}
		}
		candidates = s.cands
	}

	// Try likely-empty balls first: the neighbor centroid points toward the
	// local mass, so any empty region sits on the opposite side. Candidates
	// with the smallest projection onto the centroid direction span planes
	// tilted toward that sparse side, and the balls mirrored through them
	// bulge into it — boundary nodes (the early-exit case at the fig. 1
	// operating point) then find their empty ball within the first few
	// pairs. Ties break on index so the order — and with it the work
	// counters — is deterministic.
	s.order = append(s.order[:0], candidates...)
	if !disableOrdering {
		var centroid geom.Vec3
		for _, p := range s.rel {
			centroid = centroid.Add(p)
		}
		if cap(s.score) < n {
			s.score = make([]float64, n)
		}
		s.score = s.score[:n]
		for _, j := range candidates {
			s.score[j] = -s.rel[j].Dot(centroid)
		}
		sortByScoreDesc(s.order, s.score)
	}

	r2 := radius * radius

	// The scan visits points nearest the node first: a point at distance d
	// from the node occupies every candidate ball whose center direction is
	// within arccos(d/2r) of it, so the nearest points block the widest
	// swath of balls and settle an occupied ball in the fewest membership
	// tests. A full sort costs more than it saves; three stable distance
	// tiers capture the effect. The three ball-defining surface points are
	// not re-tested: the node is left out of the order, and the current
	// pair's occupancy thresholds are parked at zero (d² < 0 never holds)
	// for the duration of the pair, which also keeps the witness cache
	// honest without per-point index compares.
	s.scan = s.scan[:0]
	t1 := 0.25 * r2
	for i, d := range s.nn {
		if i != center && d < t1 {
			s.scan = append(s.scan, int32(i))
		}
	}
	for i, d := range s.nn {
		if i != center && d >= t1 && d < r2 {
			s.scan = append(s.scan, int32(i))
		}
	}
	for i, d := range s.nn {
		if i != center && d >= r2 {
			s.scan = append(s.scan, int32(i))
		}
	}

	// witness caches the index of the last certain occupant found: interior
	// nodes reject long runs of overlapping candidate balls on the same
	// deep neighbor, so re-testing it first usually settles a ball in one
	// membership test.
	witness := -1
	var res UBFNodeResult
	rel := s.rel
	nn := s.nn
	occ2 := s.occ2
	ord := s.order
	rr14 := 1e-14 * r2
	scan := s.scan
	for cj := 0; cj < len(ord); cj++ {
		j := ord[cj]
		u, uu := rel[j], nn[j]
		oj := occ2[j]
		occ2[j] = 0 // j sits on every ball of this row
		for ck := cj + 1; ck < len(ord); ck++ {
			k := ord[ck]
			// Candidate unit balls through the node and a neighbor pair:
			// the solutions of Eq. (1), centers node-relative. This is
			// geom.SpheresThrough3Centers spelled out — the call sits in
			// the innermost Θ(ρ²) loop, where its frame setup costs as
			// much as the math; TestFitSolverMatchesGeom pins the copy
			// against the geom original.
			v, vv := rel[k], nn[k]
			n := u.Cross(v)
			n2 := n.Norm2()
			scale := uu * vv
			if n2 <= 1e-20*scale || scale == 0 {
				continue
			}
			inv := 1 / n2
			d := v.Sub(u)
			alpha := -vv * u.Dot(d) * 0.5 * inv
			beta := uu * v.Dot(d) * 0.5 * inv
			off := u.Scale(alpha).Add(v.Scale(beta))
			h2 := r2 - off.Norm2()
			if h2 < 0 {
				continue
			}
			var c1, c2 geom.Vec3
			count := 1
			if h2 <= rr14 {
				c1, c2 = off, off
			} else {
				lift := n.Scale(math.Sqrt(h2 * inv))
				c1, c2 = off.Add(lift), off.Sub(lift)
				count = 2
			}
			ok2 := occ2[k]
			occ2[k] = 0 // k sits on both balls of this pair
			for b := 0; b < count; b++ {
				ctr := c1
				if b == 1 {
					ctr = c2
				}
				res.BallsTested++
				// Witness fast path. The surface points j and k are skipped
				// so that their parked thresholds are not counted as
				// membership tests.
				if w := witness; w >= 0 && w != j && w != k {
					res.NodesChecked++
					if rel[w].Dist2(ctr) < occ2[w] {
						continue
					}
				}
				// The emptiness scan, in place: a call frame costs as much
				// as the few probes an occupied ball needs.
				empty, checked := true, 0
				for _, ni := range scan {
					m := int(ni)
					checked++
					if rel[m].Dist2(ctr) < occ2[m] {
						empty = false
						witness = m
						break
					}
				}
				res.NodesChecked += checked
				if empty {
					res.Boundary = true
					return res // no sentinel restore: occ2 is rebuilt per Fit
				}
			}
			occ2[k] = ok2
		}
		occ2[j] = oj
	}
	return res
}
