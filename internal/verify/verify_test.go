package verify

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// TestAltBitViolatedRoundTrip is the acceptance check for the
// counterexample path: the verifier must find the alternating bit
// protocol's replay attack by pure exhaustion — no fuzzer, no hand-built
// adversary — and the emitted witness must survive a full NFT round trip
// (encode, decode, replay) reproducing the same verdict.
func TestAltBitViolatedRoundTrip(t *testing.T) {
	rep, err := Run(protocol.NewAltBit(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolated || rep.Property != "DL1" {
		t.Fatalf("verdict = %s (%s), want VIOLATED (DL1)", rep.Verdict, rep.Property)
	}
	if rep.Check != CheckCertified {
		t.Fatalf("check = %s, want CERTIFIED (altbit declares its attack bounds)", rep.Check)
	}
	if !rep.WitnessConfirmed || rep.Witness == nil {
		t.Fatalf("witness not confirmed: confirmed=%v witness=%v failures=%v",
			rep.WitnessConfirmed, rep.Witness != nil, rep.Failures)
	}

	// Round trip: the witness must be a self-contained NFT artifact.
	var buf bytes.Buffer
	if err := rep.Witness.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := replay.Run(back)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Divergence != nil {
		t.Fatalf("witness diverged after round trip: %v", rr.Divergence)
	}
	if rr.Verdict == nil || rr.Verdict.Property != "DL1" {
		t.Fatalf("round-tripped witness verdict = %v, want DL1", rr.Verdict)
	}
	if !rr.VerdictMatches {
		t.Fatalf("round-tripped witness verdict does not match its recorded verdict")
	}
}

// TestSeqNumProved is the acceptance check for the proof path: a declared
// DL-sound registry protocol must be PROVED safe at its audit bounds, and
// any stranded candidates must be cap artifacts that recover under the
// reliable closing drive.
func TestSeqNumProved(t *testing.T) {
	rep, err := Run(protocol.NewSeqNum(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictProved {
		t.Fatalf("verdict = %s, want PROVED (failures: %v)", rep.Verdict, rep.Failures)
	}
	if !rep.Exhausted {
		t.Fatalf("space not exhausted at %d states", rep.States)
	}
	if rep.Check != CheckCertified {
		t.Fatalf("check = %s, want CERTIFIED", rep.Check)
	}
	if rep.Witness != nil {
		t.Fatalf("PROVED report carries a witness")
	}
}

func TestCountingFamilyVerdicts(t *testing.T) {
	cases := []struct {
		proto   protocol.Protocol
		verdict Verdict
		prop    string
		check   Check
	}{
		{protocol.NewCntLinear(), VerdictProved, "", CheckCertified},
		{protocol.NewCntK(4), VerdictProved, "", CheckCertified},
		{protocol.NewCheat(1), VerdictViolated, "DL1", CheckCertified},
		{protocol.NewCntNoBind(), VerdictViolated, "DL1", CheckCertified},
	}
	for _, c := range cases {
		rep, err := Run(c.proto, Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.proto.Name(), err)
		}
		if rep.Verdict != c.verdict || rep.Property != c.prop || rep.Check != c.check {
			t.Errorf("%s: got %s (%s) check %s, want %s (%s) check %s; failures %v",
				c.proto.Name(), rep.Verdict, rep.Property, rep.Check, c.verdict, c.prop, c.check, rep.Failures)
		}
		if rep.POR {
			t.Errorf("%s: POR active on a genie-consulting protocol", c.proto.Name())
		}
		if c.verdict == VerdictViolated && !rep.WitnessConfirmed {
			t.Errorf("%s: witness unconfirmed: %v", c.proto.Name(), rep.Failures)
		}
	}
}

// TestCntNoBindStalePayload pins the ablation's failure mode: the pooled
// counter delivers a stale payload, a correspondence (not duplication)
// violation.
func TestCntNoBindStalePayload(t *testing.T) {
	rep, err := Run(protocol.NewCntNoBind(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolated || !strings.Contains(rep.Detail, `carries "m0"`) {
		t.Fatalf("verdict %s detail %q, want a stale-payload correspondence violation", rep.Verdict, rep.Detail)
	}
}

// TestLivelockDL3 checks the liveness path: the broken protocol's livelock
// must be found by graph analysis and emitted as a pumped certificate that
// replays clean of safety violations while stranding its message.
func TestLivelockDL3(t *testing.T) {
	rep, err := Run(protocol.NewLivelock(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolated || rep.Property != "DL3" {
		t.Fatalf("verdict = %s (%s), want VIOLATED (DL3); failures %v", rep.Verdict, rep.Property, rep.Failures)
	}
	if rep.Check != CheckCertified {
		t.Fatalf("check = %s, want CERTIFIED", rep.Check)
	}
	if rep.Witness == nil {
		t.Fatal("no witness")
	}
	if rep.Witness.Meta[replay.MetaLivelockPump] == "" {
		t.Fatalf("witness is not a pumped livelock certificate; meta = %v", rep.Witness.Meta)
	}
	rr, err := replay.Run(rep.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != nil {
		t.Fatalf("livelock witness violates safety: %v", rr.Verdict)
	}
	if rr.DL3 == nil {
		t.Fatal("livelock witness delivers everything on replay")
	}
}

// TestLivelockDL3Counts pins the DL3 analysis's output on livelock, the
// only registry protocol with stranded candidates: how many configurations
// strand a message without reaching progress, and how many were re-driven
// before one certified.
func TestLivelockDL3Counts(t *testing.T) {
	for _, c := range []struct {
		cfg                  Config
		states, edges        int
		candidates, attempts int
	}{
		{Config{}, 4, 7, 3, 1},
		{Config{Occupancy: 3, MaxMessages: 4}, 5, 9, 4, 1},
	} {
		rep, err := Run(protocol.NewLivelock(), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.States != c.states || rep.Edges != c.edges || rep.DL3Candidates != c.candidates || rep.DL3Attempted != c.attempts {
			t.Errorf("%+v: %d states, %d edges, %d candidates, %d attempted; want %d, %d, %d, %d", c.cfg,
				rep.States, rep.Edges, rep.DL3Candidates, rep.DL3Attempted, c.states, c.edges, c.candidates, c.attempts)
		}
	}
}

// TestPOREquivalence is the reduction's soundness check at test scale: POR
// on and off must agree on the verdict (and property), with the reduction
// exploring no more states than the full exploration.
func TestPOREquivalence(t *testing.T) {
	for _, name := range []string{"altbit", "seqnum", "swindow-s4-w2", "gbn-s4-w2"} {
		p, err := replay.LookupProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		on, err := Run(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		off, err := Run(p, Config{NoPOR: true})
		if err != nil {
			t.Fatal(err)
		}
		if !on.POR {
			t.Fatalf("%s: reduction not active by default (%s)", name, on.PORReason)
		}
		if off.POR {
			t.Fatalf("%s: NoPOR did not disable the reduction", name)
		}
		if on.Verdict != off.Verdict || on.Property != off.Property {
			t.Errorf("%s: POR changes the verdict: on=%s(%s) off=%s(%s)",
				name, on.Verdict, on.Property, off.Verdict, off.Property)
		}
		if on.Exhausted && off.Exhausted && on.States > off.States {
			t.Errorf("%s: reduction explored more states than the full space: %d > %d",
				name, on.States, off.States)
		}
		if on.Exhausted && off.Exhausted && on.States == off.States {
			t.Logf("%s: reduction had no effect (%d states both ways)", name, on.States)
		}
	}
}

func TestBudgetVerdict(t *testing.T) {
	rep, err := Run(protocol.NewAltBit(), Config{MaxStates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictBudget || rep.Check != CheckConsistent {
		t.Fatalf("got %s/%s, want BUDGET/CONSISTENT", rep.Verdict, rep.Check)
	}
	if rep.Exhausted {
		t.Fatal("budget-cut run reports exhaustion")
	}
}

// TestCntExpBudgetConsistent: the pessimistic protocol's control space is
// genuinely unbounded (the ever counters feed its thresholds), so the
// verifier must hit the budget and report CONSISTENT, never PROVED.
func TestCntExpBudgetConsistent(t *testing.T) {
	rep, err := Run(protocol.NewCntExp(), Config{MaxStates: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictBudget || rep.Check != CheckConsistent {
		t.Fatalf("got %s/%s, want BUDGET/CONSISTENT", rep.Verdict, rep.Check)
	}
}

// TestStabilizeTwoPoison pins the stabilize-mode answers with two poison
// packets pre-loaded per channel (nfvet verify -stabilize -maxpoison 2),
// where every other stabilize run loads at most one.
func TestStabilizeTwoPoison(t *testing.T) {
	for _, c := range []struct {
		p                    protocol.Protocol
		verdict              Verdict
		prop                 string
		seeds, states, edges int
		hash                 string
	}{
		{protocol.NewStabDL(2), VerdictProved, "", 324, 73451, 306791, "feb706a42c7c26c7"},
		{protocol.NewStabNaive(), VerdictViolated, "DL1", 36, 861, 1937, "bfb2eea618f7918e"},
		{protocol.NewAltBit(), VerdictViolated, "DL1", 216, 4963, 13003, "3d542dcb97543c4f"},
	} {
		rep, err := Run(c.p, Config{Stabilize: true, MaxPoison: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != c.verdict || rep.Property != c.prop || rep.Check != CheckCertified {
			t.Errorf("%s: %s (%s) check %s, want %s (%s) check CERTIFIED; failures %v",
				c.p.Name(), rep.Verdict, rep.Property, rep.Check, c.verdict, c.prop, rep.Failures)
		}
		if rep.MaxPoison != 2 || rep.Seeds != c.seeds || rep.States != c.states || rep.Edges != c.edges || rep.SpaceHash != c.hash {
			t.Errorf("%s: poison %d, %d seeds, %d states, %d edges, hash %s; want poison 2, %d, %d, %d, %s",
				c.p.Name(), rep.MaxPoison, rep.Seeds, rep.States, rep.Edges, rep.SpaceHash, c.seeds, c.states, c.edges, c.hash)
		}
	}
}

// TestGoldenReports pins the human-readable report layout and, with it, the
// determinism of the exploration (state counts and space hashes are exact).
func TestGoldenReports(t *testing.T) {
	altbit, err := Run(protocol.NewAltBit(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantAltbit := `protocol:   altbit
occupancy:  2
messages:   3
por:        on (lazy drops)
states:     37 (stopped at first violation)
edges:      73
space-hash: d6122be01f8a4ffa
verdict:    VIOLATED (DL1)
  detail:   delivery 2 with only 2 message(s) submitted
witness:    12 ops, replay-confirmed
declared:   attackable at occupancy>=2, messages>=3
check:      CERTIFIED
`
	if got := altbit.String(); got != wantAltbit {
		t.Errorf("altbit report:\n%s\nwant:\n%s", got, wantAltbit)
	}

	seqnum, err := Run(protocol.NewSeqNum(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantSeqnum := `protocol:   seqnum
occupancy:  2
messages:   3
por:        on (lazy drops)
states:     248 (exhausted)
edges:      1007
space-hash: 028b20653be6e3f9
verdict:    PROVED
declared:   DL-sound
check:      CERTIFIED
`
	if got := seqnum.String(); got != wantSeqnum {
		t.Errorf("seqnum report:\n%s\nwant:\n%s", got, wantSeqnum)
	}
}

func TestReportJSON(t *testing.T) {
	rep, err := Run(protocol.NewSeqNum(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"protocol", "occupancy", "messages", "states", "edges", "spaceHash", "verdict", "check"} {
		if _, ok := m[k]; !ok {
			t.Errorf("JSON artifact missing %q", k)
		}
	}
	if _, ok := m["Witness"]; ok {
		t.Error("JSON artifact embeds the witness log; it must be written separately")
	}
	if m["verdict"] != "PROVED" || m["check"] != "CERTIFIED" {
		t.Errorf("verdict/check = %v/%v", m["verdict"], m["check"])
	}
}

// TestVerdictJudgement exercises the declaration cross-check without
// relying on a protocol that genuinely contradicts itself: a run below a
// declared attack bound must come back CONSISTENT, not FAIL.
func TestVerdictJudgement(t *testing.T) {
	// altbit with one message: the attack needs three, so the space is
	// clean and the declaration is untestable at these bounds.
	rep, err := Run(protocol.NewAltBit(), Config{MaxMessages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictProved {
		t.Fatalf("verdict = %s, want PROVED at messages=1", rep.Verdict)
	}
	if rep.Check != CheckConsistent {
		t.Fatalf("check = %s, want CONSISTENT below declared attack bounds", rep.Check)
	}
}

// TestConfirmSafetyWantsItsProperty holds clean-mode witness confirmation
// to the rule stabilize.Witness keeps for corrupted starts: the explored
// altbit schedule confirms as the DL1 violation the explorer found, what
// confirmSafety returns passes stabilize.Confirm, and the same schedule is
// refused as a DL2 violation, as are the schedule without its first submit
// (a divergence) and its safe prefix without the violating delivery.
func TestConfirmSafetyWantsItsProperty(t *testing.T) {
	e, _, err := explore(protocol.NewAltBit(), Config{}, newIntStore)
	if err != nil {
		t.Fatal(err)
	}
	fv := e.violation
	if fv == nil || fv.property != "DL1" {
		t.Fatalf("explored violation %+v, want DL1", fv)
	}
	moves, root := e.chain(fv.parent, &move{kind: fv.kind, pkt: e.pkts.at(fv.pkt)})
	wl, _, err := e.witnessLog(moves, root)
	if err != nil {
		t.Fatal(err)
	}
	w, err := confirmSafety(wl, "DL1")
	if err != nil {
		t.Fatalf("confirmSafety(DL1): %v", err)
	}
	if _, err := stabilize.Confirm(w); err != nil {
		t.Errorf("confirmed witness fails stabilize.Confirm: %v", err)
	}
	if _, err := confirmSafety(wl, "DL2"); err == nil {
		t.Error("confirmSafety confirmed a DL1 schedule as DL2")
	}
	if wl.Events[0].Kind != trace.KindSubmit {
		t.Fatalf("witness opens with %v, want a submit", wl.Events[0])
	}
	edited := wl.Clone()
	edited.Events = edited.Events[1:]
	if _, err := confirmSafety(edited, "DL1"); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Errorf("confirmSafety of the schedule without its first submit: %v, want a divergence", err)
	}
	safe, _, err := e.witnessLog(moves[:len(moves)-1], root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := confirmSafety(safe, "DL1"); err == nil {
		t.Error("confirmSafety confirmed a safe prefix")
	}
}
