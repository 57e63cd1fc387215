package eval

import (
	"fmt"

	"repro/internal/metrics"
)

// FaultPoint is one loss level of a fault sweep.
type FaultPoint struct {
	// LossRate is the configured per-delivery drop probability.
	LossRate float64
	Report   metrics.Report
	Faults   metrics.FaultReport
	// Observed is the cell's obs counter roll-up ("stage/counter" →
	// total); nil unless the sweep ran under an observed Engine.
	Observed map[string]int64
}

// FaultSweepResult measures how detection quality degrades as the
// network loses messages — the robustness counterpart of the paper's
// measurement-error sweeps.
type FaultSweepResult struct {
	Scenario string
	Points   []FaultPoint
}

// FaultSweepRows renders a fault sweep as a table: detection quality
// (recall/precision and the found/mistaken/missing counts) next to the
// fault layer's own accounting (drops, retransmissions, abandonments).
func FaultSweepRows(s FaultSweepResult) (header []string, rows [][]string) {
	header = []string{"loss", "recall%", "precision%", "found", "mistaken", "missing",
		"dropped", "retransmits", "abandoned", "delivered%"}
	for _, p := range s.Points {
		r := p.Report
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", p.LossRate*100),
			fmt.Sprintf("%.1f", 100*r.Recall()),
			fmt.Sprintf("%.1f", 100*r.Precision()),
			fmt.Sprint(r.Found), fmt.Sprint(r.Mistaken), fmt.Sprint(r.Missing),
			fmt.Sprint(p.Faults.TotalDropped()),
			fmt.Sprint(p.Faults.Retransmits),
			fmt.Sprint(p.Faults.Abandoned),
			fmt.Sprintf("%.1f", 100*p.Faults.DeliveryRate()),
		})
	}
	return header, rows
}
