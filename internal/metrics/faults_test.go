package metrics

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestFaultReportZeroValue(t *testing.T) {
	var r FaultReport
	if r.DeliveryRate() != 1 {
		t.Errorf("DeliveryRate = %v, want 1 for an empty report", r.DeliveryRate())
	}
	if r.LossRate() != 0 || r.RetransmitOverhead() != 0 {
		t.Errorf("zero report has nonzero rates: %v", r)
	}
}

func TestFaultReportRates(t *testing.T) {
	var r FaultReport
	r.Add(sim.FaultStats{
		Attempts:       100,
		Delivered:      80,
		Dropped:        12,
		CrashDrops:     5,
		PartitionDrops: 3,
		Retransmits:    25,
		Abandoned:      2,
	})
	if got := r.DeliveryRate(); got != 0.8 {
		t.Errorf("DeliveryRate = %v, want 0.8", got)
	}
	if got := r.LossRate(); got != 0.2 {
		t.Errorf("LossRate = %v, want 0.2", got)
	}
	if got := r.RetransmitOverhead(); got != 0.25 {
		t.Errorf("RetransmitOverhead = %v, want 0.25", got)
	}
}

func TestFaultReportAccumulates(t *testing.T) {
	var r FaultReport
	r.Add(sim.FaultStats{Attempts: 10, Delivered: 9, Dropped: 1})
	r.Add(sim.FaultStats{Attempts: 10, Delivered: 7, Dropped: 3, Retransmits: 4})
	if r.Attempts != 20 || r.Delivered != 16 || r.Dropped != 4 || r.Retransmits != 4 {
		t.Errorf("accumulated report: %+v", r.FaultStats)
	}
	if got := r.LossRate(); got != 0.2 {
		t.Errorf("LossRate = %v, want 0.2", got)
	}
}

func TestFaultReportString(t *testing.T) {
	var r FaultReport
	r.Add(sim.FaultStats{Attempts: 4, Delivered: 3, Dropped: 1})
	s := r.String()
	for _, want := range []string{"attempts=4", "delivered=3", "dropped=1", "loss=0.250"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// TestFaultReportZeroValueStringNA: a report from a run where the fault
// layer never sent anything must not fabricate rates.
func TestFaultReportZeroValueStringNA(t *testing.T) {
	var r FaultReport
	s := r.String()
	for _, want := range []string{"attempts=0", "loss=n/a", "overhead=n/a"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
