package mds

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// fullDist returns a DistFunc exposing all pairwise distances of pts.
func fullDist(pts []geom.Vec3) DistFunc {
	return func(a, b int) (float64, bool) { return pts[a].Dist(pts[b]), true }
}

// rangeDist exposes only pairs within radius — the unit-ball measurement
// model.
func rangeDist(pts []geom.Vec3, radius float64) DistFunc {
	return func(a, b int) (float64, bool) {
		d := pts[a].Dist(pts[b])
		return d, d <= radius
	}
}

// checkRecovers asserts that Localize reproduces pts up to rigid motion
// within rmsdTol.
func checkRecovers(t *testing.T, pts []geom.Vec3, dist DistFunc, iterations int, rmsdTol float64) {
	t.Helper()
	coords, err := Localize(len(pts), dist, iterations)
	if err != nil {
		t.Fatal(err)
	}
	if len(coords) != len(pts) {
		t.Fatalf("got %d coords, want %d", len(coords), len(pts))
	}
	_, rmsd, err := geom.AlignRigid(coords, pts)
	if err != nil {
		t.Fatal(err)
	}
	if rmsd > rmsdTol {
		t.Fatalf("alignment rmsd = %v, want <= %v", rmsd, rmsdTol)
	}
}

func TestLocalizeTrivialSizes(t *testing.T) {
	coords, err := Localize(0, nil, 0)
	if err != nil || coords != nil {
		t.Errorf("n=0: %v, %v", coords, err)
	}
	coords, err = Localize(1, nil, 0)
	if err != nil || len(coords) != 1 || coords[0] != geom.Zero {
		t.Errorf("n=1: %v, %v", coords, err)
	}
}

func TestLocalizeTwoPoints(t *testing.T) {
	pts := []geom.Vec3{geom.Zero, geom.V(0.7, 0, 0)}
	coords, err := Localize(2, fullDist(pts), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := coords[0].Dist(coords[1]); math.Abs(d-0.7) > 1e-9 {
		t.Errorf("recovered distance %v, want 0.7", d)
	}
}

func TestLocalizeExactCompleteMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(20)
		pts := make([]geom.Vec3, n)
		for i := range pts {
			pts[i] = geom.RandomInBall(rng, geom.Sphere{Radius: 1})
		}
		checkRecovers(t, pts, fullDist(pts), 0, 1e-6)
	}
}

func TestLocalizePartialMatrixNeighborhood(t *testing.T) {
	// A one-hop neighborhood: center at origin, members within radius 1
	// of the center; pairs farther than 1 apart are unmeasured and must
	// be completed via shortest paths, then polished by SMACOF.
	rng := rand.New(rand.NewSource(32))
	var sum, worst float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		pts := []geom.Vec3{geom.Zero}
		for len(pts) < 15 {
			pts = append(pts, geom.RandomInBall(rng, geom.Sphere{Radius: 1}))
		}
		coords, err := Localize(len(pts), rangeDist(pts, 1), 100)
		if err != nil {
			t.Fatal(err)
		}
		_, rmsd, err := geom.AlignRigid(coords, pts)
		if err != nil {
			t.Fatal(err)
		}
		sum += rmsd
		worst = math.Max(worst, rmsd)
	}
	// Shortest-path completion distorts long pairs and SMACOF can settle
	// in local minima on sparse neighborhoods, so recovery is judged in
	// aggregate: small on average, bounded in the worst case (relative to
	// the unit measurement radius).
	if mean := sum / trials; mean > 0.12 {
		t.Errorf("mean rmsd = %v, want <= 0.12", mean)
	}
	if worst > 0.5 {
		t.Errorf("worst rmsd = %v, want <= 0.5", worst)
	}
}

func TestSmacofReducesStress(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := []geom.Vec3{geom.Zero}
	for len(pts) < 18 {
		pts = append(pts, geom.RandomInBall(rng, geom.Sphere{Radius: 1}))
	}
	dist := rangeDist(pts, 1)
	raw, err := Localize(len(pts), dist, 0)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Localize(len(pts), dist, 60)
	if err != nil {
		t.Fatal(err)
	}
	s0 := Stress(raw, dist)
	s1 := Stress(refined, dist)
	if s1 > s0+1e-12 {
		t.Errorf("SMACOF increased stress: %v -> %v", s0, s1)
	}
}

func TestLocalizeDisconnected(t *testing.T) {
	// Two clusters with no measured pair across.
	dist := func(a, b int) (float64, bool) {
		if (a < 2) == (b < 2) {
			return 0.5, true
		}
		return 0, false
	}
	if _, err := Localize(4, dist, 0); err != ErrDisconnected {
		t.Errorf("err = %v, want ErrDisconnected", err)
	}
}

func TestLocalizeBadOptions(t *testing.T) {
	pts := []geom.Vec3{geom.Zero, geom.V(1, 0, 0), geom.V(0, 1, 0)}
	if _, err := Localize(3, fullDist(pts), -1); err != ErrBadOptions {
		t.Errorf("negative iterations: err = %v", err)
	}
}

func TestLocalizeLowerDims(t *testing.T) {
	// Points on a plane carry no variance along a third axis, so the
	// embedding is flat: the third coordinate is zero up to round-off.
	pts := []geom.Vec3{
		geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0), geom.V(1, 1, 0), geom.V(0.3, 0.7, 0),
	}
	coords, err := Localize(len(pts), fullDist(pts), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range coords {
		if math.Abs(c.Z) > 1e-6 {
			t.Errorf("coord %d is off the plane: %v", i, c)
		}
	}
	_, rmsd, err := geom.AlignRigid(coords, pts)
	if err != nil {
		t.Fatal(err)
	}
	if rmsd > 1e-6 {
		t.Errorf("planar recovery rmsd = %v", rmsd)
	}
}

func TestLocalizeNoisyDistances(t *testing.T) {
	// With moderate noise, recovery should be approximate but sane.
	rng := rand.New(rand.NewSource(34))
	pts := []geom.Vec3{geom.Zero}
	for len(pts) < 16 {
		pts = append(pts, geom.RandomInBall(rng, geom.Sphere{Radius: 1}))
	}
	const noise = 0.1
	noisy := func(a, b int) (float64, bool) {
		d := pts[a].Dist(pts[b])
		if d > 1 {
			return 0, false
		}
		return math.Max(0, d+(2*rng.Float64()-1)*noise), true
	}
	coords, err := Localize(len(pts), noisy, 50)
	if err != nil {
		t.Fatal(err)
	}
	_, rmsd, err := geom.AlignRigid(coords, pts)
	if err != nil {
		t.Fatal(err)
	}
	if rmsd > 0.25 {
		t.Errorf("noisy recovery rmsd = %v", rmsd)
	}
}

func TestStress(t *testing.T) {
	pts := []geom.Vec3{geom.Zero, geom.V(1, 0, 0), geom.V(0, 1, 0)}
	if s := Stress(pts, fullDist(pts)); s != 0 {
		t.Errorf("perfect embedding stress = %v", s)
	}
	// Doubling all coordinates against original distances yields stress 1
	// (each residual equals the original distance).
	doubled := make([]geom.Vec3, len(pts))
	for i, p := range pts {
		doubled[i] = p.Scale(2)
	}
	if s := Stress(doubled, fullDist(pts)); math.Abs(s-1) > 1e-12 {
		t.Errorf("doubled embedding stress = %v, want 1", s)
	}
	// No measured pairs: zero stress by convention.
	none := func(a, b int) (float64, bool) { return 0, false }
	if s := Stress(pts, none); s != 0 {
		t.Errorf("unmeasured stress = %v", s)
	}
}

func TestLocalizeCoincidentPoints(t *testing.T) {
	// Coincident points must not produce NaNs, with or without SMACOF.
	pts := []geom.Vec3{geom.Zero, geom.Zero, geom.V(1, 0, 0), geom.V(0, 1, 0)}
	coords, err := Localize(len(pts), fullDist(pts), 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range coords {
		if !c.IsFinite() {
			t.Errorf("coord %d not finite: %v", i, c)
		}
	}
}
