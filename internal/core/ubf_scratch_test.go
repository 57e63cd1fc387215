package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// TestFitSolverMatchesGeom pins Fit's manually inlined pair solver against
// geom.SpheresThrough3Centers: the inline copy exists purely to spare the
// call frame in the Θ(ρ²) loop, so any drift between the two is a bug. The
// comparison is bit-for-bit — both spell out the same operations in the
// same order.
func TestFitSolverMatchesGeom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const r2 = 1.0
	rr14 := 1e-14 * r2
	for trial := 0; trial < 2000; trial++ {
		u := geom.RandomInBall(rng, geom.Sphere{Radius: 1})
		v := geom.RandomInBall(rng, geom.Sphere{Radius: 1})
		if trial%5 == 0 {
			// Exercise the near-collinear guard too.
			v = u.Scale(1 + 1e-9*rng.Float64())
		}
		uu, vv := u.Norm2(), v.Norm2()

		// The inline solver from Fit, verbatim.
		var ic1, ic2 geom.Vec3
		icount := 0
		n := u.Cross(v)
		n2 := n.Norm2()
		scale := uu * vv
		if n2 > 1e-20*scale && scale != 0 {
			inv := 1 / n2
			d := v.Sub(u)
			alpha := -vv * u.Dot(d) * 0.5 * inv
			beta := uu * v.Dot(d) * 0.5 * inv
			off := u.Scale(alpha).Add(v.Scale(beta))
			h2 := r2 - off.Norm2()
			if h2 >= 0 {
				if h2 <= rr14 {
					ic1, ic2, icount = off, off, 1
				} else {
					lift := n.Scale(math.Sqrt(h2 * inv))
					ic1, ic2, icount = off.Add(lift), off.Sub(lift), 2
				}
			}
		}

		gc1, gc2, gcount := geom.SpheresThrough3Centers(u, v, uu, vv, 1.0)
		if icount != gcount || ic1 != gc1 || ic2 != gc2 {
			t.Fatalf("trial %d: inline (%v, %v, %d) != geom (%v, %v, %d) for u=%v v=%v",
				trial, ic1, ic2, icount, gc1, gc2, gcount, u, v)
		}
	}
}

// TestFitOrderingInvariance: the candidate ordering heuristic must never
// change the verdict, only the work counters.
func TestFitOrderingInvariance(t *testing.T) {
	defer func(o bool) { disableOrdering = o }(disableOrdering)

	rng := rand.New(rand.NewSource(31))
	var a, b UBFScratch
	for trial := 0; trial < 80; trial++ {
		var coords []geom.Vec3
		if trial%2 == 0 {
			coords = denseNeighborhood(rng, 10+rng.Intn(60))
		} else {
			coords = halfSpaceNeighborhood(rng, 10+rng.Intn(60))
		}
		tol := rng.Float64() * 1e-3
		disableOrdering = false
		got := a.Fit(coords, 0, nil, 1.0, uniformTol(tol))
		disableOrdering = true
		want := b.Fit(coords, 0, nil, 1.0, uniformTol(tol))
		if got.Boundary != want.Boundary {
			t.Fatalf("trial %d: ordered verdict %v, natural-order verdict %v", trial, got.Boundary, want.Boundary)
		}
	}
}

// TestFitScratchSteadyStateAllocFree: after warmup, the scratch-based Fit
// must not allocate — the satellite fix for the per-call candidate slice
// and sphere slices the seed implementation built each time.
func TestFitScratchSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	interior := denseNeighborhood(rng, 150)
	boundary := halfSpaceNeighborhood(rng, 150)
	var s UBFScratch
	s.Fit(interior, 0, nil, 1.0, uniformTol(1e-9)) // warm the buffers
	s.Fit(boundary, 0, nil, 1.0, uniformTol(1e-9))
	allocs := testing.AllocsPerRun(50, func() {
		s.Fit(interior, 0, nil, 1.0, uniformTol(1e-9))
		s.Fit(boundary, 0, nil, 1.0, uniformTol(1e-9))
	})
	if allocs != 0 {
		t.Errorf("steady-state Fit allocates %.1f times per run", allocs)
	}
}

// TestFitScratchMatchesWrapper: the reused scratch path and the one-shot
// wrapper must agree exactly (verdict and counters) — they are the same
// algorithm with different buffer ownership.
func TestFitScratchMatchesWrapper(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var s UBFScratch
	for trial := 0; trial < 40; trial++ {
		coords := halfSpaceNeighborhood(rng, 8+rng.Intn(40))
		tol := rng.Float64() * 1e-6
		got := s.Fit(coords, 0, nil, 1.0, uniformTol(tol))
		want := FitEmptyBall(coords, 0, 1.0, tol)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: scratch %+v != wrapper %+v", trial, got, want)
		}
	}
}
