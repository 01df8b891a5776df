package replay

import (
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// livelockTrace records a short benign-looking run of the intentionally
// broken livelock protocol: one submit and a few transmitter steps under a
// reliable channel. Nothing in the recording itself violates anything — the
// livelock only becomes evident under the closing drive.
func livelockTrace(t testing.TB, transmits int) *trace.Log {
	t.Helper()
	l := trace.NewLog(nil)
	r := sim.NewRunner(sim.Config{
		Protocol:    replayLookup(t, "livelock"),
		DataPolicy:  channel.Reliable(),
		AckPolicy:   channel.Reliable(),
		RecordTrace: true,
		TraceLog:    l,
	})
	r.SubmitMsg("m0")
	for i := 0; i < transmits; i++ {
		r.StepTransmit()
	}
	return l
}

// strandedAltbitLog records one altbit message whose only data packet is
// delayed: the message strands in the recording, but the protocol
// retransmits and recovers under the reliable closing drive, while the
// adversarial drive pins it in a retransmit loop.
func strandedAltbitLog(t testing.TB) *trace.Log {
	t.Helper()
	l := trace.NewLog(nil)
	r := sim.NewRunner(sim.Config{
		Protocol:    replayLookup(t, "altbit"),
		DataPolicy:  channel.DelayAll(),
		AckPolicy:   channel.Reliable(),
		RecordTrace: true,
		TraceLog:    l,
	})
	r.SubmitMsg("m0")
	r.StepTransmit()
	return l
}

func TestCertifyLivelockProtocol(t *testing.T) {
	l := livelockTrace(t, 2)
	cert, err := CertifyLivelock(l, CertifyOptions{})
	if err != nil {
		t.Fatalf("CertifyLivelock: %v", err)
	}
	if cert.Protocol != "livelock" {
		t.Errorf("cert protocol = %q, want livelock", cert.Protocol)
	}
	if cert.CycleOps == 0 {
		t.Error("cert has an empty cycle")
	}
	if cert.DL3 == nil {
		t.Fatal("cert carries no DL3 violation")
	}
	if cert.RepeatedKey == "" {
		t.Error("cert has no repeated joint configuration key")
	}

	// The pumped cycle must replay deterministically and still fail DL3, for
	// any pump count — that is the Theorem 2.1 claim made executable.
	for _, n := range []int{1, 3, 7} {
		p := cert.Pumped(n)
		rr, err := Run(p)
		if err != nil {
			t.Fatalf("replaying pump x%d: %v", n, err)
		}
		if rr.Divergence != nil {
			t.Fatalf("pump x%d diverged: %v", n, rr.Divergence)
		}
		if rr.Verdict != nil {
			t.Fatalf("pump x%d violates safety: %v", n, rr.Verdict)
		}
		if rr.DL3 == nil {
			t.Fatalf("pump x%d delivers everything; not a livelock", n)
		}
		if !rr.VerdictMatches {
			t.Fatalf("pump x%d: recorded DL3 verdict not reproduced", n)
		}
	}
	if got := cert.Pumped(3).Meta[MetaLivelockPump]; got != "3" {
		t.Errorf("pump meta = %q, want 3", got)
	}
}

func TestCertifyRefusesRecoverableProtocol(t *testing.T) {
	// Altbit with every data packet delayed strands the message in the
	// recording, but the protocol retransmits and recovers under the reliable
	// closing drive: no livelock, certification must refuse.
	l := strandedAltbitLog(t)
	_, err := CertifyLivelock(l, CertifyOptions{})
	if err == nil {
		t.Fatal("certified a livelock for a protocol that recovers")
	}
	if !strings.Contains(err.Error(), "recovers") {
		t.Fatalf("unhelpful refusal: %v", err)
	}
}

func TestCertifyRefusesSafetyViolation(t *testing.T) {
	l := minimalAltbitViolation(t)
	_, err := CertifyLivelock(l, CertifyOptions{})
	if err == nil {
		t.Fatal("certified a livelock for a safety-violating trace")
	}
	if !strings.Contains(err.Error(), "DL1") {
		t.Fatalf("refusal does not name the safety property: %v", err)
	}
}

func TestCloseDriveQuiescentOnCleanRun(t *testing.T) {
	l, res := record(t, replayLookup(t, "cntlinear"), 7, 2)
	if res.Err != nil {
		t.Fatalf("recording failed: %v", res.Err)
	}
	out, err := CloseDrive(l, DriveReliable, 0)
	if err != nil {
		t.Fatalf("CloseDrive: %v", err)
	}
	if out.Safety != nil || out.DL3 != nil {
		t.Fatalf("clean run fails checks after reliable drive: safety=%v dl3=%v", out.Safety, out.DL3)
	}
	if !out.Quiescent {
		t.Fatalf("clean run not quiescent after %d rounds", out.Rounds)
	}
	if out.CycleFound {
		t.Error("clean run reported a livelock cycle")
	}
	if out.Delivered != out.Submitted {
		t.Errorf("delivered %d of %d after reliable drive", out.Delivered, out.Submitted)
	}
}

func TestCloseDriveReliableRecoversStrandedMessage(t *testing.T) {
	// The adversarial outcome on the same trace blames the schedule instead.
	l := strandedAltbitLog(t)

	rel, err := CloseDrive(l, DriveReliable, 0)
	if err != nil {
		t.Fatalf("CloseDrive reliable: %v", err)
	}
	if rel.DL3 != nil {
		t.Fatalf("altbit did not recover under the reliable drive: %v", rel.DL3)
	}
	if !rel.Quiescent {
		t.Errorf("altbit not quiescent after recovery (%d rounds)", rel.Rounds)
	}

	adv, err := CloseDrive(l, DriveAdversarial, 0)
	if err != nil {
		t.Fatalf("CloseDrive adversarial: %v", err)
	}
	if adv.DL3 == nil {
		t.Fatal("adversarial drive hides the stranded message")
	}
	// Under the drop-everything closure altbit keeps retransmitting into a
	// channel that swallows every packet: the joint configuration repeats
	// immediately and the drive certifies a schedule cycle.
	if !adv.CycleFound {
		t.Errorf("adversarial drive found no cycle after %d rounds", adv.Rounds)
	}
	if adv.Rounds == 0 {
		t.Error("adversarial drive executed no rounds; drop-everything closure not driven")
	}
	if adv.Quiescent {
		t.Error("adversarial drive reported quiescence with a message stranded")
	}
	if adv.Safety != nil {
		t.Errorf("adversarial outcome reports safety violation: %v", adv.Safety)
	}
}

// TestCertifyLivelockAdversarialMode certifies a cycle under the recorded
// schedule: altbit strands a message when every data packet is delayed, and
// the adversarial closing drive (drop everything from here on) pins it in a
// retransmit loop. The reliable drive recovers the same trace, so this
// certificate blames the schedule, not the protocol — and the pumped
// artifact must say so in its meta.
func TestCertifyLivelockAdversarialMode(t *testing.T) {
	l := strandedAltbitLog(t)

	if _, err := CertifyLivelock(l, CertifyOptions{Mode: DriveReliable}); err == nil {
		t.Fatal("reliable mode certified a trace altbit recovers from")
	}

	cert, err := CertifyLivelock(l, CertifyOptions{Mode: DriveAdversarial})
	if err != nil {
		t.Fatalf("CertifyLivelock adversarial: %v", err)
	}
	if cert.Mode != DriveAdversarial {
		t.Errorf("cert mode = %v, want adversarial", cert.Mode)
	}
	if cert.CycleOps == 0 {
		t.Error("cert has an empty cycle")
	}
	if cert.DL3 == nil {
		t.Fatal("cert carries no DL3 violation")
	}

	p := cert.Pumped(4)
	if got := p.Meta[MetaLivelockMode]; got != "adversarial" {
		t.Errorf("pumped mode meta = %q, want adversarial", got)
	}
	rr, err := Run(p)
	if err != nil {
		t.Fatalf("replaying pumped adversarial cert: %v", err)
	}
	if rr.Divergence != nil {
		t.Fatalf("pumped adversarial cert diverged: %v", rr.Divergence)
	}
	if rr.Verdict != nil {
		t.Fatalf("pumped adversarial cert violates safety: %v", rr.Verdict)
	}
	if rr.DL3 == nil {
		t.Fatal("pumped adversarial cert delivers everything; not a schedule cycle")
	}
}

func TestShrinkLivenessMinimizesLivelockTrace(t *testing.T) {
	// A fat livelock recording: extra transmits and drains beyond the one
	// submit. The reliable-oracle shrink must cut it to the lone submit —
	// the livelock needs nothing else.
	l := trace.NewLog(nil)
	r := sim.NewRunner(sim.Config{
		Protocol:    replayLookup(t, "livelock"),
		DataPolicy:  channel.Reliable(),
		AckPolicy:   channel.Reliable(),
		RecordTrace: true,
		TraceLog:    l,
	})
	r.SubmitMsg("m0")
	for i := 0; i < 4; i++ {
		r.StepTransmit()
		r.DrainAcks()
	}
	sr, err := ShrinkLiveness(l, DriveReliable)
	if err != nil {
		t.Fatalf("ShrinkLiveness: %v", err)
	}
	if sr.Property != "DL3" || sr.Oracle != "DL3-reliable" {
		t.Fatalf("property/oracle = %q/%q, want DL3/DL3-reliable", sr.Property, sr.Oracle)
	}
	if sr.FinalOps != 1 {
		t.Fatalf("FinalOps = %d, want 1 (the lone submit)", sr.FinalOps)
	}
	// The minimized trace must still certify.
	if _, err := CertifyLivelock(sr.Log, CertifyOptions{}); err != nil {
		t.Fatalf("minimized livelock trace fails certification: %v", err)
	}
}

func TestShrinkLivenessRefusesSafetyViolation(t *testing.T) {
	l := minimalAltbitViolation(t)
	_, err := ShrinkLiveness(l, DriveAdversarial)
	if err == nil {
		t.Fatal("ShrinkLiveness accepted a safety-violating trace")
	}
	if !strings.Contains(err.Error(), "DL1") {
		t.Fatalf("refusal does not name the safety property: %v", err)
	}
}

func TestShrinkLivenessRefusesCleanTrace(t *testing.T) {
	l, res := record(t, replayLookup(t, "cntlinear"), 9, 2)
	if res.Err != nil {
		t.Fatalf("recording failed: %v", res.Err)
	}
	_, err := ShrinkLiveness(l, DriveReliable)
	if err == nil {
		t.Fatal("ShrinkLiveness accepted a trace that recovers")
	}
	if !strings.Contains(err.Error(), "nothing to shrink") {
		t.Fatalf("unhelpful refusal: %v", err)
	}
}

// TestLivenessOracleEdges pins the shrinker's DL3 oracle on the boundary
// shapes: an empty trace (nothing submitted, nothing can strand), an
// all-delivered trace, and a stranded trace — which must split by mode:
// the adversarial oracle blames the schedule, the reliable one does not
// because altbit recovers.
func TestLivenessOracleEdges(t *testing.T) {
	empty := trace.NewLog(map[string]string{
		trace.MetaProtocol: "altbit", trace.MetaKind: "sim",
	})

	delivered := trace.NewLog(nil)
	r := sim.NewRunner(sim.Config{
		Protocol:    replayLookup(t, "altbit"),
		DataPolicy:  channel.Reliable(),
		AckPolicy:   channel.Reliable(),
		RecordTrace: true,
		TraceLog:    delivered,
	})
	r.SubmitMsg("m0")
	r.StepTransmit()
	r.DrainAcks()

	stranded := strandedAltbitLog(t)

	tests := []struct {
		name string
		l    *trace.Log
		mode DriveMode
		want bool
	}{
		{"empty/reliable", empty, DriveReliable, false},
		{"empty/adversarial", empty, DriveAdversarial, false},
		{"all-delivered/reliable", delivered, DriveReliable, false},
		{"all-delivered/adversarial", delivered, DriveAdversarial, false},
		{"stranded/reliable", stranded, DriveReliable, false},
		{"stranded/adversarial", stranded, DriveAdversarial, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			x, err := execFor(tc.l)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := x.classify(tc.l); err != nil {
				t.Fatal(err)
			}
			if got := livenessOracle(tc.mode).holds(x, x.kept); got != tc.want {
				t.Fatalf("oracle holds = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestDriveModeString(t *testing.T) {
	if DriveReliable.String() != "reliable" || DriveAdversarial.String() != "adversarial" {
		t.Fatalf("DriveMode strings = %q/%q", DriveReliable, DriveAdversarial)
	}
}
