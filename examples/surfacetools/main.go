// Surface tools: the full set of "graph theory tools on 3D surfaces" the
// paper motivates (Sec. I), exercised on a detected sphere boundary —
// connectivity-only embedding (virtual coordinates for the boundary),
// k-way surface partition, and greedy routing with guaranteed-delivery
// recovery over the reconstructed mesh.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/routing"
	"repro/internal/shapes"
)

func main() {
	// Detect the boundary of a sphere deployment and reconstruct its
	// triangular surface.
	net, err := netgen.Generate(netgen.Config{
		Shape:           shapes.NewBall(geom.Zero, 4),
		SurfaceNodes:    500,
		InteriorNodes:   1500,
		TargetAvgDegree: 18.5,
		Seed:            60,
	})
	if err != nil {
		log.Fatal(err)
	}
	det, err := core.Detect(net, nil, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	surface, err := mesh.Build(net.G, det.Groups[0], mesh.Config{K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("surface: %d boundary nodes, %v\n", len(surface.Group), surface.Quality)

	// Tool 1 — embedding: virtual coordinates for every boundary node
	// from hop counts alone, compared against ground truth.
	emb, err := embed.Surface(net.G, surface)
	if err != nil {
		log.Fatal(err)
	}
	rmsd, scale, err := emb.Distortion(func(n int) geom.Vec3 { return net.Nodes[n].Pos })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("embedding: %d nodes localized from connectivity, RMSD %.2f radio ranges (hop scale %.2f)\n",
		len(emb.Nodes), rmsd/net.Radius, scale)

	// Tool 2 — partition: split the boundary into 6 connected, balanced
	// patches (aggregation/routing zones).
	patches, err := partition.KWay(net.G, surface, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partition: %d patches, balance %.2f, edge cut %d, connected=%v\n",
		len(patches.Parts), patches.Balance(), patches.EdgeCut(net.G), patches.Connected(net.G))

	// Tool 3 — routing: plain greedy vs. recovery-backed greedy over the
	// landmark overlay.
	overlay := routing.NewOverlay(surface, func(n int) geom.Vec3 { return net.Nodes[n].Pos })
	lms := overlay.Landmarks()
	var plainOK, recoverOK, attempts, escapes int
	for i := 0; i < len(lms); i++ {
		for j := i + 1; j < len(lms); j++ {
			attempts++
			plain, err := overlay.Greedy(lms[i], lms[j], 4*len(lms))
			if err != nil {
				log.Fatal(err)
			}
			if plain.Success {
				plainOK++
			}
			rec, err := overlay.GreedyWithRecovery(lms[i], lms[j], 10*len(lms))
			if err != nil {
				log.Fatal(err)
			}
			if rec.Success {
				recoverOK++
			}
			escapes += rec.Recoveries
		}
	}
	fmt.Printf("routing over %d landmark pairs: greedy %.1f%%, with recovery %.1f%% (%d escapes)\n",
		attempts, 100*float64(plainOK)/float64(attempts),
		100*float64(recoverOK)/float64(attempts), escapes)
}
