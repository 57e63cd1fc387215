// Package mds implements multidimensional-scaling localization for one-hop
// neighborhoods, the local-coordinate substrate of Algorithm 1 step (I). The
// paper adopts the improved MDS-based localization of Shang & Ruml [31]; this
// package follows the same recipe: complete the partial (measured) distance
// matrix with local shortest paths, run classical MDS on the double-centered
// squared-distance matrix, and optionally refine with SMACOF stress
// majorization using only the actually measured pairs.
//
// Coordinates produced here are local: they are determined only up to a
// rigid motion and reflection, which is all Unit Ball Fitting needs (an
// empty ball is empty in any rigid frame).
package mds

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

const (
	// dims is the embedding dimension.
	dims = 3
	// minRho guards the SMACOF update against coincident points.
	minRho = 1e-9
)

// ErrBadOptions is returned for a negative SMACOF iteration count.
var ErrBadOptions = errors.New("mds: negative SMACOF iteration count")

// ErrDisconnected is returned when shortest-path completion cannot fill the
// distance matrix — the points do not form a connected measurement graph.
// For the closed one-hop neighborhoods this library localizes, the center
// node measures every member, so this indicates a caller bug.
var ErrDisconnected = errors.New("mds: measurement graph is disconnected")

// DistFunc reports the measured distance between members a and b of the
// point set being localized (indices in [0, n)), with ok=false when the
// pair was not measured. It must be symmetric; Localize queries each
// unordered pair once with a < b.
type DistFunc func(a, b int) (float64, bool)

// Localize embeds n points into 3D coordinates from partial pairwise
// distance measurements, refining the classical-MDS solution with
// smacofIterations stress-majorization sweeps over the measured pairs
// (zero disables refinement; negative is invalid). The result coordinates
// are in an arbitrary rigid frame.
func Localize(n int, dist DistFunc, smacofIterations int) ([]geom.Vec3, error) {
	if smacofIterations < 0 {
		return nil, ErrBadOptions
	}
	switch n {
	case 0:
		return nil, nil
	case 1:
		return []geom.Vec3{geom.Zero}, nil
	}

	d, observed := buildMatrix(n, dist)
	if err := completeShortestPaths(d); err != nil {
		return nil, err
	}
	coords, err := classical(d)
	if err != nil {
		return nil, fmt.Errorf("classical MDS: %w", err)
	}
	if smacofIterations > 0 {
		smacof(coords, d, observed, smacofIterations)
	}
	return coords, nil
}

// matrix carves an n×n float matrix's rows out of one flat backing array —
// two allocations instead of n+1. Localization runs once per node with
// several matrices per run, so row-slice churn dominated the allocation
// profile of whole-network sweeps.
func matrix(n int) [][]float64 {
	backing := make([]float64, n*n)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = backing[i*n : (i+1)*n]
	}
	return rows
}

// boolMatrix is matrix for masks.
func boolMatrix(n int) [][]bool {
	backing := make([]bool, n*n)
	rows := make([][]bool, n)
	for i := range rows {
		rows[i] = backing[i*n : (i+1)*n]
	}
	return rows
}

// buildMatrix assembles the symmetric distance matrix with +Inf for
// unmeasured pairs, alongside an observation mask.
func buildMatrix(n int, dist DistFunc) ([][]float64, [][]bool) {
	d := matrix(n)
	observed := boolMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if v, ok := dist(a, b); ok {
				d[a][b], d[b][a] = v, v
				observed[a][b], observed[b][a] = true, true
			}
		}
	}
	return d, observed
}

// completeShortestPaths runs Floyd–Warshall in place, replacing +Inf
// entries with shortest measured-path sums. Neighborhood matrices are tiny
// (≈ degree+1 rows), so the cubic cost is negligible.
func completeShortestPaths(d [][]float64) error {
	n := len(d)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if via := dik + d[k][j]; via < d[i][j] {
					d[i][j], d[j][i] = via, via
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.IsInf(d[i][j], 1) {
				return ErrDisconnected
			}
		}
	}
	return nil
}

// classical performs classical (Torgerson) MDS: eigendecompose the
// double-centered squared-distance matrix and scale the top eigenvectors.
func classical(d [][]float64) ([]geom.Vec3, error) {
	n := len(d)
	// B = -1/2 · J·D²·J with J = I - 11ᵀ/n, computed via row/column/grand
	// means of the squared distances. b holds D² first, then is centered
	// in place.
	b := matrix(n)
	rowMean := make([]float64, n)
	var grand float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i][j] = d[i][j] * d[i][j]
			rowMean[i] += b[i][j]
		}
		rowMean[i] /= float64(n)
		grand += rowMean[i]
	}
	grand /= float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i][j] = -0.5 * (b[i][j] - rowMean[i] - rowMean[j] + grand)
		}
	}
	vals, vecs, err := geom.SymmetricEigen(b)
	if err != nil {
		return nil, err
	}
	coords := make([]geom.Vec3, n)
	for axis := 0; axis < dims && axis < n; axis++ {
		if vals[axis] <= 0 {
			break // remaining axes carry no positive variance
		}
		scale := math.Sqrt(vals[axis])
		for i := 0; i < n; i++ {
			v := scale * vecs[axis][i]
			switch axis {
			case 0:
				coords[i].X = v
			case 1:
				coords[i].Y = v
			default:
				coords[i].Z = v
			}
		}
	}
	return coords, nil
}

// smacof refines coordinates in place with the Guttman transform
// X⁺ = V⁺·B(X)·X, the exact stress-majorization step, restricted to the
// observed pairs (the actually measured one-hop distances), which are more
// trustworthy than the shortest-path-completed entries. V is the weight
// Laplacian; its pseudo-inverse is computed once per call. Stress decreases
// monotonically under this update.
func smacof(coords []geom.Vec3, d [][]float64, observed [][]bool, iterations int) {
	n := len(coords)
	// Collect the measured pairs once: B(X)'s off-diagonal support is
	// exactly these pairs, so each majorization sweep costs
	// O(pairs + n²) instead of three dense n² passes over mostly-zero
	// entries.
	var pairs []obsPair
	deg := make([]float64, n)
	for a := 0; a < n; a++ {
		for c := a + 1; c < n; c++ {
			if observed[a][c] {
				pairs = append(pairs, obsPair{a: a, c: c, d: d[a][c]})
				deg[a]++
				deg[c]++
			}
		}
	}
	if len(pairs) == 0 {
		return
	}
	vPinv, ok := laplacianPinv(deg, pairs, n)
	if !ok {
		// Disconnected observation graph: the Cholesky shortcut does not
		// apply; fall back to the eigendecomposition pseudo-inverse of
		// the explicit Laplacian.
		v := matrix(n)
		for _, p := range pairs {
			v[p.a][p.c], v[p.c][p.a] = -1, -1
		}
		for a := 0; a < n; a++ {
			v[a][a] = deg[a]
		}
		var err error
		vPinv, err = pseudoInverse(v)
		if err != nil {
			return // leave the classical-MDS solution in place
		}
	}

	y := make([]geom.Vec3, n)
	for iter := 0; iter < iterations; iter++ {
		// Y = B(X)·X: pair (a,c) contributes s·(x_a − x_c) to row a and
		// its negation to row c, with s = d_ac / max(ρ_ac, minRho) — the
		// pair-local form of the Guttman transform's B matrix.
		for a := range y {
			y[a] = geom.Vec3{}
		}
		for _, p := range pairs {
			rho := coords[p.a].Dist(coords[p.c])
			if rho < minRho {
				rho = minRho
			}
			t := coords[p.a].Sub(coords[p.c]).Scale(p.d / rho)
			y[p.a] = y[p.a].Add(t)
			y[p.c] = y[p.c].Sub(t)
		}
		// X⁺ = V⁺·Y.
		for a := 0; a < n; a++ {
			var acc geom.Vec3
			row := vPinv[a]
			for c := 0; c < n; c++ {
				acc = acc.Add(y[c].Scale(row[c]))
			}
			coords[a] = acc
		}
	}
}

// obsPair is one measured distance (a < c) — the sparse support SMACOF
// iterates over.
type obsPair struct {
	a, c int
	d    float64
}

// laplacianPinv computes the pseudo-inverse of the observation-weight
// Laplacian V through the identity (V + 11ᵀ/n)⁻¹ = V⁺ + 11ᵀ/n, valid when
// the observation graph is connected (null(V) = span(1)). The SMACOF
// update only ever applies the result to Y = B(X)·X, whose rows sum to
// zero (each pair contributes ±t), so the extra 11ᵀ/n term annihilates and
// (V + 11ᵀ/n)⁻¹ substitutes for V⁺ exactly. The shifted matrix is
// symmetric positive definite, so a Cholesky inversion does the job in a
// fraction of the eigendecomposition's operations. ok=false reports a
// failed pivot — a disconnected observation graph — and the caller falls
// back to the eigen route.
func laplacianPinv(deg []float64, pairs []obsPair, n int) ([][]float64, bool) {
	a := matrix(n)
	shift := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := a[i]
		for j := 0; j < n; j++ {
			row[j] = shift
		}
		row[i] += deg[i]
	}
	for _, p := range pairs {
		a[p.a][p.c]--
		a[p.c][p.a]--
	}
	// Cholesky A = L·Lᵀ, L accumulating in the lower triangle.
	for j := 0; j < n; j++ {
		sum := a[j][j]
		for k := 0; k < j; k++ {
			sum -= a[j][k] * a[j][k]
		}
		if sum <= 1e-9 {
			return nil, false
		}
		ljj := math.Sqrt(sum)
		a[j][j] = ljj
		for i := j + 1; i < n; i++ {
			s := a[i][j]
			for k := 0; k < j; k++ {
				s -= a[i][k] * a[j][k]
			}
			a[i][j] = s / ljj
		}
	}
	// A⁻¹ column by column: forward-substitute L·w = eₑ, then
	// back-substitute Lᵀ·x = w.
	out := matrix(n)
	col := make([]float64, n)
	for e := 0; e < n; e++ {
		for i := 0; i < n; i++ {
			s := 0.0
			if i == e {
				s = 1
			}
			for k := 0; k < i; k++ {
				s -= a[i][k] * col[k]
			}
			col[i] = s / a[i][i]
		}
		for i := n - 1; i >= 0; i-- {
			s := col[i]
			for k := i + 1; k < n; k++ {
				s -= a[k][i] * col[k]
			}
			col[i] = s / a[i][i]
		}
		for i := 0; i < n; i++ {
			out[i][e] = col[i]
		}
	}
	return out, true
}

// pseudoInverse computes the Moore–Penrose pseudo-inverse of a symmetric
// matrix via its eigendecomposition, zeroing near-null directions (the
// weight Laplacian is singular along translations).
func pseudoInverse(m [][]float64) ([][]float64, error) {
	n := len(m)
	vals, vecs, err := geom.SymmetricEigen(m)
	if err != nil {
		return nil, err
	}
	var maxAbs float64
	for _, v := range vals {
		if math.Abs(v) > maxAbs {
			maxAbs = math.Abs(v)
		}
	}
	cutoff := 1e-10 * (maxAbs + 1)
	inv := matrix(n)
	for k, v := range vals {
		if math.Abs(v) <= cutoff {
			continue
		}
		w := 1 / v
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				inv[i][j] += w * vecs[k][i] * vecs[k][j]
			}
		}
	}
	return inv, nil
}

// Stress returns the normalized residual stress of an embedding against the
// measured distances: sqrt( Σ(ρ_ab - d_ab)² / Σ d_ab² ) over measured pairs.
// Zero means a perfect fit; it is the standard goodness-of-fit metric for
// MDS localization.
func Stress(coords []geom.Vec3, dist DistFunc) float64 {
	var num, den float64
	n := len(coords)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d, ok := dist(a, b)
			if !ok {
				continue
			}
			rho := coords[a].Dist(coords[b])
			num += (rho - d) * (rho - d)
			den += d * d
		}
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// ResidualRMS returns the root-mean-square absolute residual |ρ_ab - d_ab|
// over the measured pairs — the locally observable estimate of a frame's
// coordinate uncertainty (in distance units). Nodes use it to size the
// strict-interior tolerance of Unit Ball Fitting adaptively.
func ResidualRMS(coords []geom.Vec3, dist DistFunc) float64 {
	var num float64
	count := 0
	n := len(coords)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d, ok := dist(a, b)
			if !ok {
				continue
			}
			rho := coords[a].Dist(coords[b])
			num += (rho - d) * (rho - d)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return math.Sqrt(num / float64(count))
}
