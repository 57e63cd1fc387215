// Package embed demonstrates the first "graph theory tools on 3D surfaces"
// application the paper motivates (Sec. I): embedding — assigning global
// virtual coordinates to a reconstructed boundary surface from
// connectivity alone. Landmarks are embedded by classical MDS over their
// pairwise hop distances through the boundary subgraph; every other
// boundary node is then placed by interpolation over its nearby landmarks.
// The result is a connectivity-only localization of the boundary, the
// quality of which is measured against true positions by rigid alignment.
package embed

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mds"
	"repro/internal/mesh"
)

// ErrTooFewLandmarks is returned when the surface has fewer than four
// landmarks, too few to span a 3D embedding.
var ErrTooFewLandmarks = errors.New("embed: surface needs at least 4 landmarks")

// ErrDisconnected is returned when some landmark pair is not connected
// through the boundary subgraph.
var ErrDisconnected = errors.New("embed: landmarks not mutually reachable through the boundary")

const (
	// maxAnchors is the number of nearest landmarks each non-landmark
	// node interpolates over.
	maxAnchors = 4
	// landmarkSmacofIterations refines the landmark skeleton's classical
	// MDS solution.
	landmarkSmacofIterations = 60
)

// Embedding is a virtual coordinate assignment for one boundary surface.
type Embedding struct {
	// Nodes lists the embedded boundary node IDs (the surface group).
	Nodes []int
	// Coords holds each node's virtual position, parallel to Nodes.
	Coords []geom.Vec3
	// Landmarks lists the landmark IDs used as the MDS skeleton.
	Landmarks []int

	index map[int]int
}

// Position returns a node's virtual coordinate.
func (e *Embedding) Position(node int) (geom.Vec3, bool) {
	idx, ok := e.index[node]
	if !ok {
		return geom.Zero, false
	}
	return e.Coords[idx], true
}

// Surface embeds a reconstructed boundary surface into 3D virtual
// coordinates using hop distances only, at one hop = one unit: no true
// positions are available to a connectivity-only embedding, so callers
// comparing against ground truth align with scale (see Distortion).
func Surface(g *graph.Graph, s *mesh.Surface) (*Embedding, error) {
	lms := s.Landmarks.IDs
	if len(lms) < 4 {
		return nil, ErrTooFewLandmarks
	}
	inGroup := make([]bool, g.Len())
	for _, v := range s.Group {
		inGroup[v] = true
	}
	member := graph.InSet(inGroup)

	// Hop-distance fields from every landmark (reused for interpolation).
	fields := make([][]int, len(lms))
	for i, lm := range lms {
		fields[i] = g.BFSHops([]int{lm}, member, -1)
	}
	// Landmark skeleton via classical MDS on the complete hop matrix.
	dist := func(a, b int) (float64, bool) {
		d := fields[a][lms[b]]
		if d == graph.Unreachable {
			return 0, false
		}
		return float64(d), true
	}
	lmCoords, err := mds.Localize(len(lms), dist, landmarkSmacofIterations)
	if err != nil {
		if errors.Is(err, mds.ErrDisconnected) {
			return nil, ErrDisconnected
		}
		return nil, fmt.Errorf("landmark MDS: %w", err)
	}

	emb := &Embedding{
		Nodes:     append([]int(nil), s.Group...),
		Coords:    make([]geom.Vec3, len(s.Group)),
		Landmarks: append([]int(nil), lms...),
		index:     make(map[int]int, len(s.Group)),
	}
	sort.Ints(emb.Nodes)
	for k, v := range emb.Nodes {
		emb.index[v] = k
	}
	lmIndex := make(map[int]int, len(lms))
	for i, lm := range lms {
		lmIndex[lm] = i
	}

	type anchor struct {
		lm   int // index into lms
		hops int
	}
	for k, v := range emb.Nodes {
		if li, isLM := lmIndex[v]; isLM {
			emb.Coords[k] = lmCoords[li]
			continue
		}
		// Collect the nearest landmarks by hop distance.
		anchors := make([]anchor, 0, len(lms))
		for i := range lms {
			if d := fields[i][v]; d != graph.Unreachable {
				anchors = append(anchors, anchor{lm: i, hops: d})
			}
		}
		if len(anchors) == 0 {
			// Isolated from every landmark (cannot happen for a
			// connected group, kept defensive): park at origin.
			continue
		}
		sort.Slice(anchors, func(a, b int) bool {
			if anchors[a].hops != anchors[b].hops {
				return anchors[a].hops < anchors[b].hops
			}
			return anchors[a].lm < anchors[b].lm
		})
		if len(anchors) > maxAnchors {
			anchors = anchors[:maxAnchors]
		}
		// Inverse-hop-weighted interpolation over the anchors.
		var sum geom.Vec3
		var wsum float64
		for _, a := range anchors {
			w := 1.0 / float64(1+a.hops)
			sum = sum.Add(lmCoords[a.lm].Scale(w))
			wsum += w
		}
		emb.Coords[k] = sum.Scale(1 / wsum)
	}
	return emb, nil
}

// Distortion measures an embedding against true positions: it rigidly
// aligns (with uniform scale chosen by least squares first, since hop
// units are arbitrary) and returns the residual RMSD in true-position
// units, plus the scale applied. Lower is better; the network radius is
// the natural yardstick.
func (e *Embedding) Distortion(truth func(node int) geom.Vec3) (rmsd, scale float64, err error) {
	if len(e.Nodes) < 3 {
		return 0, 0, errors.New("embed: too few nodes for distortion")
	}
	target := make([]geom.Vec3, len(e.Nodes))
	for k, v := range e.Nodes {
		target[k] = truth(v)
	}
	// Least-squares uniform scale between centered configurations.
	cv := geom.Centroid(e.Coords)
	ct := geom.Centroid(target)
	var num, den float64
	for k := range e.Coords {
		num += target[k].Sub(ct).Norm() * e.Coords[k].Sub(cv).Norm()
		den += e.Coords[k].Sub(cv).Norm2()
	}
	if den == 0 {
		return 0, 0, errors.New("embed: degenerate embedding")
	}
	scale = num / den
	scaled := make([]geom.Vec3, len(e.Coords))
	for k, c := range e.Coords {
		scaled[k] = cv.Add(c.Sub(cv).Scale(scale))
	}
	_, rmsd, aerr := geom.AlignRigid(scaled, target)
	if aerr != nil {
		return 0, 0, aerr
	}
	return rmsd, scale, nil
}
