package analyze

import (
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// TestSweepMonotone sweeps a representative protocol set and checks the
// Theorem 2.1 expectation: over exhausted points, k_t, k_r and the pumping
// bound never decrease as the occupancy cap grows.
func TestSweepMonotone(t *testing.T) {
	ps := []protocol.Protocol{
		protocol.NewAltBit(),
		protocol.NewCntK(4),
		transport.New(4, 2),
		transport.NewGoBackN(4, 2),
	}
	for _, rep := range SweepAll(ps, SweepConfig{MaxOccupancy: 3, MaxStates: 1 << 14}) {
		if err := rep.CheckMonotone(); err != nil {
			t.Error(err)
		}
		if len(rep.Points) == 0 {
			t.Errorf("%s: sweep produced no points", rep.Protocol)
		}
		for i, pt := range rep.Points {
			if pt.Occupancy != i+1 {
				t.Errorf("%s: point %d has occupancy %d, want %d", rep.Protocol, i, pt.Occupancy, i+1)
			}
		}
	}
}

// TestSweepTruncatesAtBudget: the sweep stops at the first budget-hit point
// — reachable sets grow with the cap, so later points are foregone
// conclusions — and marks the report truncated.
func TestSweepTruncatesAtBudget(t *testing.T) {
	rep := Sweep(transport.New(4, 2), SweepConfig{MaxOccupancy: 4, MaxStates: 256})
	if !rep.Truncated {
		t.Fatalf("swindow-s4-w2 under a 256-state budget should truncate, got %d full points", len(rep.Points))
	}
	last := rep.Points[len(rep.Points)-1]
	if last.Exhausted {
		t.Fatal("truncated sweep's last point claims exhaustion")
	}
	if last.PumpingBound != 0 {
		t.Fatalf("budget-hit point has PumpingBound %d, want 0 (undefined)", last.PumpingBound)
	}
	for _, pt := range rep.Points[:len(rep.Points)-1] {
		if !pt.Exhausted {
			t.Fatalf("non-final point at occupancy %d is unexhausted; sweep should have stopped there", pt.Occupancy)
		}
	}
}

// TestSweepUnboundedProtocol: a state-unbounded protocol hits the budget at
// every cap, so its sweep is a single budget-hit point.
func TestSweepUnboundedProtocol(t *testing.T) {
	rep := Sweep(protocol.NewSeqNum(), SweepConfig{MaxOccupancy: 3, MaxStates: 512})
	if len(rep.Points) != 1 || rep.Points[0].Exhausted || !rep.Truncated {
		t.Fatalf("seqnum sweep = %+v, want one budget-hit point and Truncated", rep)
	}
}

// TestCheckMonotoneDetectsShrinkage: a hand-built curve whose pumping bound
// shrinks must be rejected — that shape can only come from an unsound
// enumeration or ControlKey quotient.
func TestCheckMonotoneDetectsShrinkage(t *testing.T) {
	rep := &SweepReport{
		Protocol: "broken",
		Points: []SweepPoint{
			{Occupancy: 1, States: 10, Exhausted: true, KT: 4, KR: 4, PumpingBound: 16},
			{Occupancy: 2, States: 20, Exhausted: true, KT: 4, KR: 2, PumpingBound: 8},
		},
	}
	if err := rep.CheckMonotone(); err == nil {
		t.Fatal("shrinking k_r survived CheckMonotone")
	}
	// Budget-hit points are lower bounds and must be exempt from the check.
	rep.Points[1].Exhausted = false
	if err := rep.CheckMonotone(); err != nil {
		t.Fatalf("unexhausted point should not participate in monotonicity: %v", err)
	}
}

// TestSweepTableFormat pins the TSV shape downstream tooling parses.
func TestSweepTableFormat(t *testing.T) {
	reports := SweepAll([]protocol.Protocol{protocol.NewAltBit()}, SweepConfig{MaxOccupancy: 2, MaxStates: 1 << 14})
	table := SweepTable(reports)
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if lines[0] != "protocol\toccupancy\tstates\texact\tk_t\tk_r\tk_t*k_r\theaders" {
		t.Fatalf("header row drifted: %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("altbit sweep to occupancy 2 should emit 2 data rows, got %d:\n%s", len(lines)-1, table)
	}
	for _, line := range lines[1:] {
		if fields := strings.Split(line, "\t"); len(fields) != 8 {
			t.Errorf("row has %d fields, want 8: %q", len(fields), line)
		}
		if !strings.HasPrefix(line, "altbit\t") {
			t.Errorf("row does not lead with the protocol name: %q", line)
		}
	}
}
