package transport_test

// The two wrap attacks on a finite sequence space, scripted by hand,
// recorded, and re-judged by replay: the sliding window's stale data
// segment (a DL1 break) and go-back-N's stale cumulative ack (a livelock,
// certified by pumping).

import (
	"strconv"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// record captures one schedule against p as an NFT event log.
func record(p protocol.Protocol, data, ack channel.Policy, drive func(r *sim.Runner)) *trace.Log {
	l := trace.NewLog(nil)
	drive(sim.NewRunner(sim.Config{
		Protocol:    p,
		DataPolicy:  data,
		AckPolicy:   ack,
		RecordTrace: true,
		TraceLog:    l,
	}))
	return l
}

// mustReplay replays l by its recorded protocol name and requires the
// replay to reproduce the recording exactly.
func mustReplay(t *testing.T, l *trace.Log) *replay.Result {
	t.Helper()
	res, err := replay.Run(l)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Ops == 0 {
		t.Fatal("schedule recorded no operations")
	}
	if res.Divergence != nil {
		t.Fatalf("replay diverged from the recording: %v", res.Divergence)
	}
	return res
}

// TestSwindowWrapAliasReplaysDL1: a delayed copy of the very first data
// packet (header s0, payload m0) is replayed after the window has wrapped
// to sequence 4, whose header is also s0. The receiver accepts the stale
// payload as message 4.
func TestSwindowWrapAliasReplaysDL1(t *testing.T) {
	l := record(transport.New(4, 2), channel.Script(channel.Delay), channel.Reliable(), func(r *sim.Runner) {
		r.SubmitMsg("m0")
		r.StepTransmit() // first s0[m0] copy delayed: the future alias
		r.StepTransmit() // retransmission delivered; m0 confirmed below
		r.DrainAcks()
		for i := 1; i < 4; i++ {
			r.SubmitMsg("m" + strconv.Itoa(i))
			r.StepTransmit()
			r.DrainAcks()
		}
		r.SubmitMsg("m4") // sequence 4 wraps to header s0
		if err := r.DeliverStale(ioa.TtoR, ioa.Packet{Header: "s0", Payload: "m0"}); err != nil {
			t.Fatalf("stale s0 replay infeasible: %v", err)
		}
	})
	res := mustReplay(t, l)
	if res.Verdict == nil || res.Verdict.Property != "DL1" {
		t.Fatalf("wrap-alias schedule should violate DL1, got verdict %v", res.Verdict)
	}
}

// TestGBNAckAliasCertifiesLivelock: a delayed t0 ack from message 0 is
// replayed after the window wraps, acknowledging the queued but never
// transmitted sequence 4. The sender strands m4 and the pair loops forever
// (the sender retransmits s1, the receiver re-acks t3, which resolves to
// nothing). The schedule is safety-clean with a DL3 miss, certifies as a
// livelock, and its pumped certificate replays exactly.
func TestGBNAckAliasCertifiesLivelock(t *testing.T) {
	l := record(transport.NewGoBackN(4, 2), channel.Reliable(), channel.Script(channel.Delay), func(r *sim.Runner) {
		r.SubmitMsg("m0")
		r.StepTransmit() // s0 delivered, t0 queued
		r.DrainAcks()    // t0 delayed: the future alias
		r.StepTransmit() // s0 retransmitted; receiver re-acks t0
		r.DrainAcks()    // re-ack delivered, m0 confirmed
		for i := 1; i < 4; i++ {
			r.SubmitMsg("m" + strconv.Itoa(i))
			r.StepTransmit()
			r.DrainAcks()
		}
		r.SubmitMsg("m4") // sequence 4 admitted but never transmitted
		if err := r.DeliverStale(ioa.RtoT, ioa.Packet{Header: "t0"}); err != nil {
			t.Fatalf("stale t0 replay infeasible: %v", err)
		}
		r.SubmitMsg("m5") // sequence 5; receiver still expects sequence 4
		for i := 0; i < 4; i++ {
			r.StepTransmit() // s1 rejected
			r.DrainAcks()    // t3 re-ack resolves no in-flight sequence
		}
	})
	res := mustReplay(t, l)
	if res.Verdict != nil {
		t.Fatalf("ack-alias schedule should be safety-clean, got %v", res.Verdict)
	}
	if res.DL3 == nil {
		t.Fatal("ack-alias schedule should strand messages (DL3)")
	}

	cert, err := replay.CertifyLivelock(l, replay.CertifyOptions{})
	if err != nil {
		t.Fatalf("CertifyLivelock: %v", err)
	}
	if cert.CycleOps == 0 {
		t.Fatal("certificate has an empty cycle")
	}
	pumped := mustReplay(t, cert.Pumped(3))
	if pumped.Verdict != nil || pumped.DL3 == nil {
		t.Fatalf("pumped certificate should replay safety-clean with a DL3 miss, got verdict %v, dl3 %v",
			pumped.Verdict, pumped.DL3)
	}
}
