package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/routing"
)

// SurfaceToolsReport measures the "graph theory tools on 3D surfaces" the
// paper motivates in Sec. I — embedding/localization, partition, and
// greedy routing (with recovery) — on a scenario's largest reconstructed
// boundary surface.
type SurfaceToolsReport struct {
	Name string
	// EmbedRMSD is the connectivity-only embedding's residual against
	// true positions after scaled rigid alignment, in radio ranges.
	EmbedRMSD float64
	// PartitionK, Balance and EdgeCut describe the k-way surface
	// partition.
	PartitionK int
	Balance    float64
	EdgeCut    int
	// GreedyRate and RecoveryRate are delivery rates without and with
	// local-minimum recovery; Recoveries counts the escapes used.
	GreedyRate   float64
	RecoveryRate float64
	Recoveries   int
}

// RunSurfaceTools deploys the scenario at zero ranging error, reconstructs
// its largest boundary surface, and exercises the three applications.
func RunSurfaceTools(sc Scenario, meshCfg mesh.Config, k int) (*SurfaceToolsReport, error) {
	net, err := sc.Generate()
	if err != nil {
		return nil, err
	}
	det, err := core.Detect(net, nil, core.Config{})
	if err != nil {
		return nil, err
	}
	if len(det.Groups) == 0 {
		return nil, fmt.Errorf("scenario %s: no boundary found", sc.Name)
	}
	largest := det.Groups[0]
	for _, g := range det.Groups {
		if len(g) > len(largest) {
			largest = g
		}
	}
	surface, err := mesh.Build(net.G, largest, meshCfg)
	if err != nil {
		return nil, err
	}
	rep := &SurfaceToolsReport{Name: sc.Name, PartitionK: k}

	// Embedding.
	emb, err := embed.Surface(net.G, surface)
	if err != nil {
		return nil, fmt.Errorf("embed: %w", err)
	}
	rmsd, _, err := emb.Distortion(func(n int) geom.Vec3 { return net.Nodes[n].Pos })
	if err != nil {
		return nil, err
	}
	rep.EmbedRMSD = rmsd / net.Radius

	// Partition.
	if k > len(surface.Landmarks.IDs) {
		k = len(surface.Landmarks.IDs)
		rep.PartitionK = k
	}
	patches, err := partition.KWay(net.G, surface, k)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	rep.Balance = patches.Balance()
	rep.EdgeCut = patches.EdgeCut(net.G)

	// Routing: pairwise delivery with and without recovery.
	overlay := routing.NewOverlay(surface, func(n int) geom.Vec3 { return net.Nodes[n].Pos })
	lms := overlay.Landmarks()
	var plainOK, recoverOK, attempts int
	for i := 0; i < len(lms); i++ {
		for j := i + 1; j < len(lms); j++ {
			attempts++
			plain, err := overlay.Greedy(lms[i], lms[j], 4*len(lms))
			if err != nil {
				return nil, err
			}
			if plain.Success {
				plainOK++
			}
			rec, err := overlay.GreedyWithRecovery(lms[i], lms[j], 10*len(lms))
			if err != nil {
				return nil, err
			}
			if rec.Success {
				recoverOK++
			}
			rep.Recoveries += rec.Recoveries
		}
	}
	if attempts > 0 {
		rep.GreedyRate = float64(plainOK) / float64(attempts)
		rep.RecoveryRate = float64(recoverOK) / float64(attempts)
	}
	return rep, nil
}

// SurfaceToolsRows renders the application study as a table.
func SurfaceToolsRows(reports []*SurfaceToolsReport) (header []string, rows [][]string) {
	header = []string{"scenario", "embedRMSD(R)", "k", "balance", "edgeCut",
		"greedy%", "recovery%", "recoveries"}
	for _, r := range reports {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.2f", r.EmbedRMSD),
			fmt.Sprint(r.PartitionK),
			fmt.Sprintf("%.2f", r.Balance),
			fmt.Sprint(r.EdgeCut),
			fmt.Sprintf("%.1f", 100*r.GreedyRate),
			fmt.Sprintf("%.1f", 100*r.RecoveryRate),
			fmt.Sprint(r.Recoveries),
		})
	}
	return header, rows
}
