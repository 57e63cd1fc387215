// Fault-side observability: aggregates the simulator's per-run fault
// counters into the rates the loss-sweep experiment reports alongside
// recall/precision.
package metrics

import (
	"fmt"

	"repro/internal/sim"
)

// FaultReport summarizes message-level fault activity for one detection
// run (or an accumulation over several). It embeds the simulator's raw
// counters and derives the rates worth printing; the obs msgs_* counters
// carry the same numbers, since sim.FaultStats.EmitObs is their only
// emitter.
type FaultReport struct {
	sim.FaultStats
}

// Add accumulates another run's counters.
func (r *FaultReport) Add(s sim.FaultStats) { r.FaultStats.Add(s) }

// DeliveryRate is the fraction of send attempts that reached a handler.
// Injected duplicates count as extra deliveries, so the rate can exceed
// 1 under heavy duplication; with none it is at most 1.
func (r FaultReport) DeliveryRate() float64 {
	if r.Attempts == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(r.Attempts)
}

// LossRate is the fraction of send attempts killed by the fault layer,
// from any cause: random loss, crashed receivers, or partitions.
func (r FaultReport) LossRate() float64 {
	if r.Attempts == 0 {
		return 0
	}
	return float64(r.TotalDropped()) / float64(r.Attempts)
}

// RetransmitOverhead is the number of retransmissions per original send
// attempt — the price the reliable protocols paid to mask the loss.
func (r FaultReport) RetransmitOverhead() float64 {
	if r.Attempts == 0 {
		return 0
	}
	return float64(r.Retransmits) / float64(r.Attempts)
}

// String implements fmt.Stringer. A zero-attempt report (the fault layer
// never ran) prints its rates as "n/a" rather than a made-up number.
func (r FaultReport) String() string {
	if r.Attempts == 0 {
		return fmt.Sprintf("attempts=0 delivered=%d dropped=%d retransmits=%d abandoned=%d (loss=n/a overhead=n/a)",
			r.Delivered, r.TotalDropped(), r.Retransmits, r.Abandoned)
	}
	return fmt.Sprintf("attempts=%d delivered=%d dropped=%d retransmits=%d abandoned=%d (loss=%.3f overhead=%.3f)",
		r.Attempts, r.Delivered, r.TotalDropped(), r.Retransmits, r.Abandoned,
		r.LossRate(), r.RetransmitOverhead())
}
