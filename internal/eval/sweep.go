package eval

import (
	"fmt"

	"repro/internal/metrics"
)

// MaxHops is the histogram range of the paper's mistaken/missing
// distributions (Figs. 1(h), 1(i), 11(b), 11(c)).
const MaxHops = 3

// SweepPoint is one error level of an error sweep.
type SweepPoint struct {
	ErrorFrac float64
	Report    metrics.Report
	// Observed is the cell's obs counter roll-up ("stage/counter" →
	// total), attached only when the sweep ran under an observed Engine;
	// nil otherwise.
	Observed map[string]int64
}

// SweepResult is a full error sweep over one network — the data behind
// Figs. 1(g)–(i).
type SweepResult struct {
	Scenario string
	Points   []SweepPoint
}

// EfficiencyRows renders a sweep as the Fig. 1(g) / 11(a) table: one row
// per error level with found/correct/mistaken/missing, both absolute and
// as percentages of the true boundary count.
func EfficiencyRows(s SweepResult) (header []string, rows [][]string) {
	header = []string{"error", "true", "found", "correct", "mistaken", "missing",
		"found%", "correct%", "mistaken%", "missing%"}
	for _, p := range s.Points {
		r := p.Report
		pct := func(v int) string {
			if r.TrueBoundary == 0 {
				return "0.0"
			}
			return fmt.Sprintf("%.1f", 100*float64(v)/float64(r.TrueBoundary))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", p.ErrorFrac*100),
			fmt.Sprint(r.TrueBoundary), fmt.Sprint(r.Found), fmt.Sprint(r.Correct),
			fmt.Sprint(r.Mistaken), fmt.Sprint(r.Missing),
			pct(r.Found), pct(r.Correct), pct(r.Mistaken), pct(r.Missing),
		})
	}
	return header, rows
}

// DistributionRows renders a sweep's mistaken or missing hop distribution
// as the Fig. 1(h)/(i) / 11(b)/(c) table: one row per error level with the
// 1/2/3-hop fractions.
func DistributionRows(s SweepResult, missing bool) (header []string, rows [][]string) {
	header = []string{"error", "count", "1hop%", "2hop%", "3hop%", "beyond%"}
	for _, p := range s.Points {
		st := p.Report.MistakenHops
		if missing {
			st = p.Report.MissingHops
		}
		frac, beyond := st.Fractions()
		row := []string{fmt.Sprintf("%.0f%%", p.ErrorFrac*100), fmt.Sprint(st.Total())}
		for _, f := range frac {
			row = append(row, fmt.Sprintf("%.1f", 100*f))
		}
		row = append(row, fmt.Sprintf("%.1f", 100*beyond))
		rows = append(rows, row)
	}
	return header, rows
}
