package mds_test

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/mds"
)

// Localize recovers a point configuration (up to rigid motion) from
// pairwise distances; unmeasured pairs are completed via shortest paths.
func ExampleLocalize() {
	pts := []geom.Vec3{
		geom.V(0, 0, 0), geom.V(1, 0, 0), geom.V(0, 1, 0), geom.V(0, 0, 1),
	}
	dist := func(a, b int) (float64, bool) { return pts[a].Dist(pts[b]), true }
	coords, err := mds.Localize(len(pts), dist, 50)
	if err != nil {
		fmt.Println(err)
		return
	}
	// The embedding is in an arbitrary frame, but pairwise distances are
	// preserved.
	fmt.Printf("d01=%.2f d23=%.2f stress=%.3f\n",
		coords[0].Dist(coords[1]), coords[2].Dist(coords[3]), mds.Stress(coords, dist))
	// Output:
	// d01=1.00 d23=1.41 stress=0.000
}
