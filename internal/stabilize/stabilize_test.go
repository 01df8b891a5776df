package stabilize

import (
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
)

func TestEnumerateStabDL(t *testing.T) {
	p := protocol.NewStabDL(2)
	seeds := Enumerate(p, 1)
	// 3 transmitter states × 3 receiver states × (1 empty + 2 singleton)
	// data poisons × (1 + 2) ack poisons.
	if len(seeds) != 81 {
		t.Fatalf("stabdl2 seeds = %d, want 81", len(seeds))
	}
	if !seeds[0].Clean() {
		t.Fatalf("seed 0 = %v, want clean", seeds[0])
	}
	keys := make(map[string]bool, len(seeds))
	for _, s := range seeds {
		k := s.Key()
		if keys[k] {
			t.Fatalf("duplicate seed key %q", k)
		}
		keys[k] = true
	}
}

func TestEnumerateMaxPoisonGrowsMultisets(t *testing.T) {
	p := protocol.NewStabDL(2)
	// maxPoison 2 over a 2-packet alphabet: 1 + 2 + 3 = 6 multisets per
	// channel; 3 × 3 × 6 × 6 = 324.
	if got := len(Enumerate(p, 2)); got != 324 {
		t.Fatalf("stabdl2 seeds at maxPoison=2: %d, want 324", got)
	}
}

func TestEnumerateNonCorruptible(t *testing.T) {
	seeds := Enumerate(protocol.NewSeqNum(), 2)
	if len(seeds) != 1 || !seeds[0].Clean() {
		t.Fatalf("non-Corruptible protocol seeds = %v, want single clean", seeds)
	}
}

func TestAmnesty(t *testing.T) {
	pkt := ioa.Packet{Header: "d0", Payload: "z"}
	cases := []struct {
		c    Corruption
		occ  int
		want int
	}{
		{Corruption{}, 2, 0},
		{Corruption{Data: []ioa.Packet{pkt}}, 2, 1},
		{Corruption{Data: []ioa.Packet{pkt, pkt}, Ack: []ioa.Packet{{Header: "a0"}}}, 2, 3},
		{Corruption{TIdx: 1}, 2, 3},
		{Corruption{TIdx: 1, RIdx: 2}, 3, 8},
	}
	for _, tc := range cases {
		if got := Amnesty(tc.c, tc.occ); got != tc.want {
			t.Errorf("Amnesty(%v, occ=%d) = %d, want %d", tc.c, tc.occ, got, tc.want)
		}
	}
}

func TestClassify(t *testing.T) {
	payloads := []string{"m0", "m1", "m2", "m3"}
	at := func(i int) string { return payloads[i] }

	kind, charge, f, lost := Classify("m0", at, 0, 0, 4)
	if kind != StepProgress || charge != 0 || f != 1 || lost != 0 {
		t.Fatalf("progress: got %v charge=%d f=%d lost=%b", kind, charge, f, lost)
	}
	// Skip from frontier 0 straight to m2: charges the stranded window m0,m1.
	kind, charge, f, lost = Classify("m2", at, 0, 0, 4)
	if kind != StepSkip || charge != 2 || f != 3 || lost != 0b11 {
		t.Fatalf("skip: got %v charge=%d f=%d lost=%b", kind, charge, f, lost)
	}
	// A skipped message arriving late is a DL2 fault and leaves the lost set.
	kind, charge, f, lost = Classify("m1", at, 3, 0b11, 4)
	if kind != StepLate || charge != 1 || f != 3 || lost != 0b01 {
		t.Fatalf("late: got %v charge=%d f=%d lost=%b", kind, charge, f, lost)
	}
	if StepLate.Property() != "DL2" {
		t.Fatalf("StepLate property = %q, want DL2", StepLate.Property())
	}
	// A delivered message arriving again is a duplicate.
	kind, charge, _, _ = Classify("m1", at, 3, 0, 4)
	if kind != StepDup || charge != 1 {
		t.Fatalf("dup: got %v charge=%d", kind, charge)
	}
	// Unknown payloads are garbage.
	kind, charge, _, _ = Classify("z", at, 0, 0, 4)
	if kind != StepGarbage || charge != 1 {
		t.Fatalf("garbage: got %v charge=%d", kind, charge)
	}
}

func msgEvent(kind ioa.Kind, id int, payload string) ioa.Event {
	return ioa.Event{Kind: kind, Msg: ioa.Message{ID: id, Payload: payload}}
}

func TestJudgeTraceLateArrivalIsDL2(t *testing.T) {
	tr := ioa.Trace{
		msgEvent(ioa.SendMsg, 0, "m0"),
		msgEvent(ioa.SendMsg, 1, "m1"),
		msgEvent(ioa.ReceiveMsg, 0, "m1"), // skip over m0: 1 fault
		msgEvent(ioa.ReceiveMsg, 1, "m0"), // late arrival: DL2, 1 fault
	}
	j := JudgeTrace(tr, 1)
	if j.Charges != 2 || j.Violation == nil || j.Violation.Property != "DL2" {
		t.Fatalf("judgment = charges %d violation %v, want 2 charges + DL2", j.Charges, j.Violation)
	}
	if JudgeTrace(tr, 2).Violation != nil {
		t.Fatalf("amnesty 2 should forgive both faults")
	}
}

func TestJudgeQuiescentChargesStranded(t *testing.T) {
	tr := ioa.Trace{
		msgEvent(ioa.SendMsg, 0, "m0"),
		msgEvent(ioa.SendMsg, 1, "m1"),
		msgEvent(ioa.ReceiveMsg, 0, "m0"),
		// m1 confirmed (the run is quiescent) but never delivered.
	}
	if j := JudgeTrace(tr, 0); j.Violation != nil {
		t.Fatalf("prefix judge charged an in-flight message: %v", j.Violation)
	}
	j := JudgeQuiescent(tr, 0)
	if j.Stranded != 1 || j.Violation == nil || j.Violation.Property != "DL3" {
		t.Fatalf("quiescent judgment = stranded %d violation %v, want 1 stranded + DL3", j.Stranded, j.Violation)
	}
}

func TestStabDLConvergesFromEverySeed(t *testing.T) {
	p := protocol.NewStabDL(2)
	for _, seed := range Enumerate(p, 1) {
		rep, err := CheckConvergence(p, seed, Config{})
		if err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
		if !rep.Converged {
			t.Errorf("seed %s: diverged: %v (cert err %q)", seed, rep.Violation, rep.CertErr)
			continue
		}
		if rep.Judgment.Charges > rep.Amnesty {
			t.Errorf("seed %s: %d charges exceed amnesty %d yet converged", seed, rep.Judgment.Charges, rep.Amnesty)
		}
	}
}

func TestCleanSeedConvergesWithZeroCharges(t *testing.T) {
	for _, p := range []protocol.Protocol{protocol.NewAltBit(), protocol.NewStabDL(2), protocol.NewStabNaive()} {
		rep, err := CheckConvergence(p, Corruption{}, Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !rep.Converged || rep.Judgment.Charges != 0 || rep.Amnesty != 0 {
			t.Errorf("%s clean seed: converged=%v charges=%d amnesty=%d, want clean run",
				p.Name(), rep.Converged, rep.Judgment.Charges, rep.Amnesty)
		}
	}
}

// The control specimen must be caught: at least one corrupted seed diverges,
// and the divergence is certified — either replay-confirmed over-amnesty
// faults or a pumped livelock cycle.
func TestStabNaiveDiverges(t *testing.T) {
	p := protocol.NewStabNaive()
	var faults, livelocks int
	for _, seed := range Enumerate(p, 1) {
		rep, err := CheckConvergence(p, seed, Config{})
		if err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
		if rep.Converged {
			continue
		}
		if rep.Cert != nil {
			livelocks++
			if !rep.ReplayConfirmed {
				t.Errorf("seed %s: livelock cert not replay-confirmed", seed)
			}
			if got := rep.Witness.Meta[MetaStabilize]; !strings.HasPrefix(got, "diverged") {
				t.Errorf("seed %s: witness stabilize meta %q", seed, got)
			}
		} else if rep.Violation != nil && rep.CertErr == "" {
			faults++
			if !rep.ReplayConfirmed {
				t.Errorf("seed %s: %v not replay-confirmed", seed, rep.Violation)
			}
		}
	}
	if faults == 0 {
		t.Errorf("stabnaive: no seed diverged by over-amnesty fault")
	}
	if livelocks == 0 {
		t.Errorf("stabnaive: no seed diverged by certified livelock")
	}
}

// altbit predates the stabilizing family and must also be caught: a poison
// packet impersonating a data packet defeats the bare alternating bit.
func TestAltBitDiverges(t *testing.T) {
	p := protocol.NewAltBit()
	diverged := 0
	for _, seed := range Enumerate(p, 1) {
		rep, err := CheckConvergence(p, seed, Config{})
		if err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
		if !rep.Converged && (rep.ReplayConfirmed || rep.CertErr != "") {
			diverged++
		}
	}
	if diverged == 0 {
		t.Errorf("altbit survived every corrupted seed; it should not self-stabilize")
	}
}

// arrival delivers in arrival order, so a forged early copy of a later
// message breaks convergence.
func TestArrivalDiverges(t *testing.T) {
	p := protocol.NewArrival()
	diverged := false
	for _, seed := range Enumerate(p, 1) {
		rep, err := CheckConvergence(p, seed, Config{})
		if err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
		if !rep.Converged {
			diverged = true
		}
	}
	if !diverged {
		t.Errorf("arrival converged from every seed; its forged-copy seed should diverge")
	}
}

// A fault-divergence witness must re-drive bit for bit and carry a verdict
// the replay re-checker agrees with.
func TestDivergenceWitnessReplays(t *testing.T) {
	p := protocol.NewStabNaive()
	for _, seed := range Enumerate(p, 1) {
		rep, err := CheckConvergence(p, seed, Config{})
		if err != nil {
			t.Fatalf("seed %s: %v", seed, err)
		}
		if rep.Converged || rep.Cert != nil || rep.CertErr != "" {
			continue
		}
		rr, err := replay.Run(rep.Witness)
		if err != nil {
			t.Fatalf("seed %s: replaying witness: %v", seed, err)
		}
		if rr.Divergence != nil {
			t.Fatalf("seed %s: witness diverged: %v", seed, rr.Divergence)
		}
		if !rr.VerdictMatches {
			t.Fatalf("seed %s: witness verdict mismatch: recorded %v, re-checked %v/%v",
				seed, rr.RecordedVerdict, rr.Verdict, rr.DL3)
		}
		if rep.Witness.Meta[MetaCorruption] != seed.Key() {
			t.Fatalf("seed %s: witness corruption meta %q", seed, rep.Witness.Meta[MetaCorruption])
		}
		return
	}
	t.Skip("no fault-divergence seed found (covered by TestStabNaiveDiverges)")
}

// TestRecheck: every witness CheckConvergence writes from starts with up to
// two poison packets passes Recheck against its own replay (fault
// divergences and pumped stall certificates alike), while a fault-divergence witness whose amnesty or
// claimed property was rewritten fails it, as does its claim rewritten to
// "converged".
func TestRecheck(t *testing.T) {
	forged := 0
	for _, p := range []protocol.Protocol{protocol.NewStabNaive(), protocol.NewAltBit(), protocol.NewArrival()} {
		for _, seed := range Enumerate(p, 2) {
			rep, err := CheckConvergence(p, seed, Config{})
			if err != nil {
				t.Fatalf("%s seed %s: %v", p.Name(), seed, err)
			}
			if rep.Converged {
				continue
			}
			rr, err := replay.Run(rep.Witness)
			if err != nil {
				t.Fatalf("%s seed %s: replaying witness: %v", p.Name(), seed, err)
			}
			if err := Recheck(rep.Witness, rr); err != nil {
				t.Errorf("%s seed %s: witness fails Recheck: %v", p.Name(), seed, err)
			}
			if rep.Violation.Property == "DL3" {
				continue
			}
			other := "DL2"
			if rep.Violation.Property == "DL2" {
				other = "DL1"
			}
			for _, meta := range [][2]string{
				{MetaAmnesty, "99"},
				{MetaAmnesty, "x"},
				{MetaStabilize, "diverged " + other},
				{MetaStabilize, "converged"},
			} {
				l := rep.Witness.Clone()
				l.SetMeta(meta[0], meta[1])
				if Recheck(l, rr) == nil {
					t.Errorf("%s seed %s: witness with %s %q passes Recheck", p.Name(), seed, meta[0], meta[1])
				}
			}
			forged++
		}
	}
	if forged == 0 {
		t.Fatal("no fault-divergence witness to forge")
	}
}
