package replay

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// record runs proto for msgs messages under seeded probabilistic channels
// and returns the recorded log plus the original result.
func record(t *testing.T, proto protocol.Protocol, seed int64, msgs int) (*trace.Log, sim.Result) {
	t.Helper()
	l := trace.NewLog(nil)
	r := sim.NewRunner(sim.Config{
		Protocol:    proto,
		DataPolicy:  channel.Probabilistic(0.3, rand.New(rand.NewSource(seed))),
		AckPolicy:   channel.Probabilistic(0.2, rand.New(rand.NewSource(seed+1))),
		RecordTrace: true,
		TraceLog:    l,
	})
	res := r.Run(msgs)
	if res.Err != nil {
		t.Fatalf("%s seed %d: run failed: %v", proto.Name(), seed, res.Err)
	}
	return l, res
}

// TestReplayReproduces is the subsystem's core property: for every protocol
// and seed, replaying a recording reproduces the execution bit for bit —
// same event stream, same deliveries, same metrics, same verdicts.
func TestReplayReproduces(t *testing.T) {
	protos := []protocol.Protocol{
		protocol.NewSeqNum(),
		protocol.NewAltBit(),
		protocol.NewCntLinear(),
	}
	for _, proto := range protos {
		for seed := int64(0); seed < 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", proto.Name(), seed), func(t *testing.T) {
				l, orig := record(t, proto, seed, 4)
				rr, err := Run(l)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if rr.Divergence != nil {
					t.Fatalf("replay diverged: %v", rr.Divergence)
				}
				if rr.StaleSkipped != 0 || rr.DecisionsExhausted {
					t.Errorf("unfaithful replay: staleSkipped=%d exhausted=%v", rr.StaleSkipped, rr.DecisionsExhausted)
				}
				if !reflect.DeepEqual(rr.Metrics, orig.Metrics) {
					t.Errorf("metrics mismatch:\nreplayed %+v\noriginal %+v", rr.Metrics, orig.Metrics)
				}
				if !reflect.DeepEqual(rr.Delivered, orig.Delivered) {
					t.Errorf("deliveries mismatch: %v vs %v", rr.Delivered, orig.Delivered)
				}
				// Checker verdicts must agree with checking the original run.
				origErr := ioa.CheckSafety(orig.Trace)
				if (rr.Verdict == nil) != (origErr == nil) {
					t.Errorf("verdict mismatch: replayed %v, original %v", rr.Verdict, origErr)
				}
				if rr.DL3 != nil {
					t.Errorf("completed run failed quiescent DL3: %v", rr.DL3)
				}
			})
		}
	}
}

// violatingAltbitLog scripts the classic alternating-bit duplication attack
// with the step API, padded with removable no-op fat so shrinking has work
// to do: confirm two messages while a delayed copy of the first data packet
// sits in transit, then deliver the stale copy — the receiver's bit has
// wrapped around, so it accepts the old packet as a new message (DL1).
func violatingAltbitLog(t testing.TB) *trace.Log {
	t.Helper()
	l := trace.NewLog(nil)
	r := sim.NewRunner(sim.Config{
		Protocol:    protocol.NewAltBit(),
		DataPolicy:  channel.DelayFirst(1),
		RecordTrace: true,
		TraceLog:    l,
	})
	r.SubmitMsg("m0")
	r.DrainAcks() // removable fat: nothing to drain yet
	for r.T.Busy() {
		r.StepTransmit()
		r.DrainAcks()
	}
	r.SubmitMsg("m1")
	for r.T.Busy() {
		r.StepTransmit()
		r.DrainAcks()
	}
	r.DrainAcks() // more removable fat
	stale := r.ChData.Packets()
	if len(stale) != 1 {
		t.Fatalf("expected exactly one delayed data packet, have %v", stale)
	}
	if err := r.DeliverStale(ioa.TtoR, stale[0]); err != nil {
		t.Fatalf("DeliverStale: %v", err)
	}
	err := ioa.CheckSafety(r.Recorder().Trace())
	v, ok := ioa.AsViolation(err)
	if !ok || v.Property != "DL1" {
		t.Fatalf("attack did not produce a DL1 violation: %v", err)
	}
	l.Emit(trace.Event{Kind: trace.KindVerdict, Property: v.Property, Index: v.Index, Detail: v.Detail})
	return l
}

func TestReplayReportsRecordedViolation(t *testing.T) {
	l := violatingAltbitLog(t)
	rr, err := Run(l)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rr.Verdict == nil || rr.Verdict.Property != "DL1" {
		t.Fatalf("replayed verdict = %v, want DL1", rr.Verdict)
	}
	if !rr.HadRecordedVerdict || !rr.VerdictMatches {
		t.Errorf("recorded verdict not matched: had=%v matches=%v", rr.HadRecordedVerdict, rr.VerdictMatches)
	}
	if rr.Divergence != nil {
		t.Errorf("faithful replay diverged: %v", rr.Divergence)
	}
}

// TestShrinkPreservesViolation: the shrunk trace must be strictly smaller
// and still violate DL1 when replayed.
func TestShrinkPreservesViolation(t *testing.T) {
	l := violatingAltbitLog(t)
	sr, err := Shrink(l)
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if sr.Property != "DL1" {
		t.Errorf("preserved property = %q, want DL1", sr.Property)
	}
	if sr.FinalEvents >= sr.OriginalEvents || sr.FinalOps >= sr.OriginalOps {
		t.Errorf("not strictly smaller: events %d→%d, ops %d→%d",
			sr.OriginalEvents, sr.FinalEvents, sr.OriginalOps, sr.FinalOps)
	}
	rr, err := Run(sr.Log)
	if err != nil {
		t.Fatalf("replaying shrunk trace: %v", err)
	}
	if rr.Verdict == nil || rr.Verdict.Property != "DL1" {
		t.Fatalf("shrunk trace verdict = %v, want DL1", rr.Verdict)
	}
	// The shrunk log is a re-recording, so it must replay with no divergence.
	if rr.Divergence != nil {
		t.Errorf("shrunk trace is not self-consistent: %v", rr.Divergence)
	}
	// Shrinking a shrunk trace should find nothing more to remove.
	sr2, err := Shrink(sr.Log)
	if err != nil {
		t.Fatalf("re-shrinking: %v", err)
	}
	if sr2.FinalOps > sr.FinalOps {
		t.Errorf("shrink not idempotent: ops %d → %d", sr.FinalOps, sr2.FinalOps)
	}
}

func TestRunRejectsObservationalAndUnknown(t *testing.T) {
	l := trace.NewLog(map[string]string{trace.MetaKind: "netlink", trace.MetaProtocol: "seqnum"})
	if _, err := Run(l); err == nil {
		t.Error("netlink trace accepted for replay")
	}
	l2 := trace.NewLog(map[string]string{trace.MetaProtocol: "nosuch"})
	if _, err := Run(l2); err == nil {
		t.Error("unknown protocol accepted")
	}
	l3 := trace.NewLog(nil)
	if _, err := Run(l3); err == nil {
		t.Error("protocol-less trace accepted")
	}
}

func TestLookupProtocolFamilies(t *testing.T) {
	for _, name := range []string{"seqnum", "altbit", "cntlinear", "cntexp", "cntk4", "cntk7", "cheat1", "cheat3", "livelock", "cntnobind"} {
		p, err := LookupProtocol(name)
		if err != nil {
			t.Errorf("LookupProtocol(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("LookupProtocol(%q).Name() = %q", name, p.Name())
		}
	}
	for _, bad := range []string{"", "cheat", "cheat0", "cntk-1", "fifo"} {
		if _, err := LookupProtocol(bad); err == nil {
			t.Errorf("LookupProtocol(%q) unexpectedly succeeded", bad)
		}
	}
}
