package bound

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
)

const budget = 1 << 18

func TestClosingCostIdleIsZero(t *testing.T) {
	r := sim.NewRunner(sim.Config{Protocol: protocol.NewAltBit()})
	cost, err := ClosingCost(r, budget)
	if err != nil || cost != 0 {
		t.Fatalf("idle closing cost = %d, %v; want 0, nil", cost, err)
	}
}

func TestClosingCostDoesNotMutateCaller(t *testing.T) {
	r := sim.NewRunner(sim.Config{Protocol: protocol.NewAltBit()})
	r.SubmitMsg("m")
	key := protocol.StateKey(r.T)
	if _, err := ClosingCost(r, budget); err != nil {
		t.Fatal(err)
	}
	if protocol.StateKey(r.T) != key {
		t.Fatal("ClosingCost mutated the caller's runner")
	}
	if !r.T.Busy() {
		t.Fatal("caller's message should still be outstanding")
	}
}

func TestClosingCostCleanChannel(t *testing.T) {
	// On a clean channel every protocol closes a one-message semi-valid
	// execution with O(1) packets. The stabilizing family pays the largest
	// constant: stabdl's receiver adopts only after C+1 consecutive copies,
	// so closing one message costs up to 2(C+1)+2 packets at C=2.
	reg := protocol.Registry()
	for _, name := range protocol.Names() {
		r := sim.NewRunner(sim.Config{Protocol: reg[name]})
		r.SubmitMsg("m")
		cost, err := ClosingCost(r, budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cost < 1 || cost > 8 {
			t.Fatalf("%s: clean-channel closing cost = %d, want small", name, cost)
		}
	}
}

func TestMeasureMfNaiveAndAltbitConstant(t *testing.T) {
	// Over reliable channels, altbit and seqnum are M_f-bounded for a
	// constant f: closing cost does not grow with messages delivered.
	for _, p := range []protocol.Protocol{protocol.NewAltBit(), protocol.NewSeqNum()} {
		samples, err := MeasureMf(p, 12, budget)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		for _, s := range samples {
			if s.Cost > 3 {
				t.Fatalf("%s: closing cost %d after %d messages, want O(1): %+v",
					p.Name(), s.Cost, s.MessagesDelivered, samples)
			}
		}
	}
}

func TestMeasureMfCntExpGrows(t *testing.T) {
	// The pessimistic counting protocol's closing cost grows with the
	// number of messages delivered — the paper's observation that the
	// [AFWZ88]-style protocol is exponential even in the best case.
	samples, err := MeasureMf(protocol.NewCntExp(), 10, budget)
	if err != nil {
		t.Fatal(err)
	}
	if samples[9].Cost < 4*samples[1].Cost {
		t.Fatalf("cntexp closing cost should grow: %+v", samples)
	}
}

func TestBuildInTransit(t *testing.T) {
	for _, l := range []int{0, 1, 8, 64} {
		r, err := BuildInTransit(protocol.NewCntLinear(), l, budget)
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		if got := r.ChData.InTransit(); got < l {
			t.Fatalf("l=%d: in-transit = %d", l, got)
		}
		if r.T.Busy() {
			t.Fatalf("l=%d: transmitter should be idle", l)
		}
		if len(r.Delivered()) != 1 {
			t.Fatalf("l=%d: delivered %v", l, r.Delivered())
		}
	}
}

func TestBuildInTransitSeqnum(t *testing.T) {
	r, err := BuildInTransit(protocol.NewSeqNum(), 16, budget)
	if err != nil {
		t.Fatal(err)
	}
	if r.ChData.InTransit() < 16 {
		t.Fatalf("in-transit = %d", r.ChData.InTransit())
	}
}

func TestMeasurePfShapes(t *testing.T) {
	levels := []int{0, 4, 16, 64}

	// Theorem 4.1 tight shape: the genie counting protocol pays ≥ L_bit
	// packets at in-transit level L (half the stranded copies share the
	// measured phase's bit here, all of them in this construction).
	lin, err := MeasurePf(protocol.NewCntLinear(), levels, budget)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range lin {
		if s.Cost < levels[i] {
			t.Fatalf("cntlinear: level %d cost %d, want ≥ level: %+v", levels[i], s.Cost, lin)
		}
	}
	if lin[3].Cost < 8*lin[1].Cost/2 {
		t.Fatalf("cntlinear P_f curve not ~linear: %+v", lin)
	}

	// The naive protocol is immune: O(1) cost at every level — it is
	// allowed to be, because its header count is not bounded (Theorem 4.1
	// only constrains k-header protocols).
	sq, err := MeasurePf(protocol.NewSeqNum(), levels, budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sq {
		if s.Cost > 3 {
			t.Fatalf("seqnum: cost %d at in-transit %d, want O(1): %+v", s.Cost, s.InTransit, sq)
		}
	}
}

func TestMeasurePfRecordsInTransit(t *testing.T) {
	samples, err := MeasurePf(protocol.NewCntLinear(), []int{8}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if samples[0].InTransit < 8 {
		t.Fatalf("InTransit = %d, want ≥ 8", samples[0].InTransit)
	}
}

func TestStateSpaceAltbitFinite(t *testing.T) {
	// The alternating bit protocol under the constant-payload convention
	// is finite-state; the sweep must find a small product.
	kt, kr, err := StateSpace(protocol.NewAltBit(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if kt == 0 || kr == 0 {
		t.Fatal("state sweep found no states")
	}
	if kt > 8 || kr > 8 {
		t.Fatalf("altbit state counts too large: kt=%d kr=%d", kt, kr)
	}
}

func TestStateSpaceCountingGrows(t *testing.T) {
	// The counting protocols' state keys include history counters, so the
	// observed state count exceeds altbit's — space grows with execution.
	ktA, krA, err := StateSpace(protocol.NewAltBit(), 6)
	if err != nil {
		t.Fatal(err)
	}
	ktC, krC, err := StateSpace(protocol.NewCntExp(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if ktC <= ktA || krC <= krA {
		t.Fatalf("counting state space should exceed altbit: altbit=(%d,%d) cntexp=(%d,%d)",
			ktA, krA, ktC, krC)
	}
}

// TestTheorem21BoundnessWithinProduct is the E1 check: the measured
// boundness of the finite-state alternating bit protocol is at most the
// product of its observed state counts (Theorem 2.1: any protocol is
// k_t·k_r-bounded).
func TestTheorem21BoundnessWithinProduct(t *testing.T) {
	kt, kr, err := StateSpace(protocol.NewAltBit(), 6)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := MeasureMf(protocol.NewAltBit(), 10, budget)
	if err != nil {
		t.Fatal(err)
	}
	maxCost := 0
	for _, s := range samples {
		if s.Cost > maxCost {
			maxCost = s.Cost
		}
	}
	if maxCost > kt*kr {
		t.Fatalf("measured boundness %d exceeds k_t·k_r = %d·%d", maxCost, kt, kr)
	}
}

func TestBuildInTransitLivenessFailure(t *testing.T) {
	// A protocol that cannot deliver makes the builder fail cleanly.
	if _, err := BuildInTransit(protocol.NewLivelock(), 4, 500); err == nil {
		t.Fatal("builder should fail for a protocol that never delivers")
	}
}

func TestClosingCostBudgetError(t *testing.T) {
	r := sim.NewRunner(sim.Config{Protocol: protocol.NewLivelock()})
	r.SubmitMsg("m")
	_, err := ClosingCost(r, 50)
	if err == nil {
		t.Fatal("livelock closing cost should exhaust the budget")
	}
}

func TestMeasurePfPropagatesBuildErrors(t *testing.T) {
	if _, err := MeasurePf(protocol.NewLivelock(), []int{1}, 200); err == nil {
		t.Fatal("MeasurePf should surface builder errors")
	}
}
