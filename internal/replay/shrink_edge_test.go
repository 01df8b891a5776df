package replay

import (
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Shrinker edge cases: inputs at the boundary of "there is something to
// minimize" — no operations at all, an already-minimal certificate, and a
// trace with nothing wrong with it. The shrinker must terminate with either
// a sound certificate or a clear refusal on all of them; these shapes are
// exactly what the fuzzer's promotion pipeline feeds it unsupervised.

// minimalAltbitViolation hand-builds the canonical 7-op altbit replay
// attack: strand a d0 copy, deliver two messages, then re-deliver the stale
// copy when the receiver expects bit 0 again. Removing any operation group
// breaks the violation, so the trace is already minimal.
func minimalAltbitViolation(t testing.TB) *trace.Log {
	t.Helper()
	l := trace.NewLog(nil)
	r := sim.NewRunner(sim.Config{
		Protocol: replayLookup(t, "altbit"),
		// First data send is delayed (the stranded copy); everything after
		// is delivered immediately.
		DataPolicy:  channel.Script(channel.Delay),
		AckPolicy:   channel.Reliable(),
		RecordTrace: true,
		TraceLog:    l,
	})
	r.SubmitMsg("m0")
	r.StepTransmit() // d0 delayed: stranded
	r.StepTransmit() // d0 delivered: m0 accepted
	r.DrainAcks()    // a0 delivered: transmitter flips to bit 1
	r.SubmitMsg("m1")
	r.StepTransmit() // d1 delivered: m1 accepted, receiver expects 0 again
	if err := r.DeliverStale(ioa.TtoR, ioa.Packet{Header: "d0", Payload: "m0"}); err != nil {
		t.Fatalf("stale delivery infeasible: %v", err)
	}
	l.Emit(trace.Event{Kind: trace.KindVerdict, Property: "DL1"})
	return l
}

func replayLookup(t testing.TB, name string) protocol.Protocol {
	t.Helper()
	p, err := LookupProtocol(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestShrinkRefusesEmptyOpList(t *testing.T) {
	l := trace.NewLog(map[string]string{
		trace.MetaProtocol: "altbit",
		trace.MetaKind:     "sim",
	})
	_, err := Shrink(l)
	if err == nil {
		t.Fatal("Shrink accepted a trace with no operations")
	}
	if !strings.Contains(err.Error(), "nothing to shrink") {
		t.Fatalf("unhelpful refusal: %v", err)
	}
}

func TestShrinkAlreadyMinimalIsNoOp(t *testing.T) {
	l := minimalAltbitViolation(t)
	sr, err := Shrink(l)
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if sr.Property != "DL1" {
		t.Fatalf("preserved property = %q, want DL1", sr.Property)
	}
	if sr.FinalOps != sr.OriginalOps {
		t.Fatalf("shrink removed ops from a minimal certificate: %d -> %d",
			sr.OriginalOps, sr.FinalOps)
	}
	rr, err := Run(sr.Log)
	if err != nil {
		t.Fatalf("replaying no-op shrink output: %v", err)
	}
	if rr.Verdict == nil || rr.Verdict.Property != "DL1" {
		t.Fatalf("no-op shrink output verdict = %v, want DL1", rr.Verdict)
	}
}

func TestShrinkRefusesNonViolatingTrace(t *testing.T) {
	// A clean recorded run: correct protocol, lossless channels.
	l, res := record(t, replayLookup(t, "cntlinear"), 1, 3)
	if res.Err != nil {
		t.Fatalf("clean run failed: %v", res.Err)
	}
	_, err := Shrink(l)
	if err == nil {
		t.Fatal("Shrink accepted a non-violating trace")
	}
	if !strings.Contains(err.Error(), "nothing to shrink") {
		t.Fatalf("unhelpful refusal: %v", err)
	}
}

// TestShrinkDL3OnlyTraceShrinks: a trace that strands a message (quiescent
// DL3 failure) but violates no safety property now shrinks under the
// liveness oracle. Altbit recovers under the reliable closing drive (the
// transmitter retransmits until confirmed), so the preserved failure is the
// *schedule*'s — the adversarial oracle — and the minimal counterexample is
// the lone submit: a message accepted by the transmitter that the recorded
// channel behaviour never delivers.
func TestShrinkDL3OnlyTraceShrinks(t *testing.T) {
	l := strandedAltbitLog(t)
	sr, err := Shrink(l)
	if err != nil {
		t.Fatalf("Shrink refused a DL3-only trace: %v", err)
	}
	if sr.Property != "DL3" {
		t.Fatalf("preserved property = %q, want DL3", sr.Property)
	}
	if sr.Oracle != "DL3-adversarial" {
		t.Fatalf("oracle = %q, want DL3-adversarial (altbit recovers under the reliable drive)", sr.Oracle)
	}
	if sr.FinalOps != 1 {
		t.Fatalf("FinalOps = %d, want 1 (the lone submit)", sr.FinalOps)
	}
	if v, ok := sr.Log.Verdict(); !ok || v == nil || v.Property != "DL3" {
		t.Fatalf("shrunk log verdict = %v (present=%v), want DL3", v, ok)
	}
	// 1-minimality: removing the one remaining op loses the violation — an
	// empty trace submits nothing, so nothing can strand.
	out, err := CloseDrive(trace.NewLog(map[string]string{
		trace.MetaProtocol: "altbit", trace.MetaKind: "sim",
	}), DriveAdversarial, 0)
	if err != nil {
		t.Fatalf("CloseDrive on empty trace: %v", err)
	}
	if out.DL3 != nil {
		t.Fatalf("empty trace fails DL3 under adversarial drive: %v", out.DL3)
	}
}
