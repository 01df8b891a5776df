package explore

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

func TestAltbitCounterexampleFound(t *testing.T) {
	rep, err := Explore(protocol.NewAltBit(), Config{Messages: 3, MaxDataSends: 5, MaxAckSends: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatalf("exhaustive search must break altbit: %+v", rep)
	}
	if rep.Violation.Property != "DL1" {
		t.Fatalf("violation = %v", rep.Violation)
	}
	// The counterexample must independently fail the safety checkers.
	if err := ioa.CheckSafety(rep.Counterexample); err == nil {
		t.Fatalf("counterexample passes the checkers:\n%s", rep.Counterexample)
	}
	if len(rep.Counterexample) == 0 {
		t.Fatal("empty counterexample")
	}
}

func TestAltbitCounterexampleIsShort(t *testing.T) {
	// BFS returns a shortest counterexample; the known-minimal attack
	// needs 2 messages, a duplicate send of d0, and a replay — well under
	// 20 events.
	rep, err := Explore(protocol.NewAltBit(), Config{Messages: 2, MaxDataSends: 4, MaxAckSends: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatal("no counterexample")
	}
	if len(rep.Counterexample) > 16 {
		t.Fatalf("counterexample unexpectedly long (%d events):\n%s",
			len(rep.Counterexample), rep.Counterexample)
	}
}

func TestAltbitCounterexampleShape(t *testing.T) {
	rep, err := Explore(protocol.NewAltBit(), Config{Messages: 2, MaxDataSends: 4, MaxAckSends: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Counterexample.String()
	// The attack replays a stale d0 copy; the trace must show d0 received
	// at least twice.
	if strings.Count(s, "receive_pkt^t→r(d0") < 2 {
		t.Fatalf("expected a replayed d0 in the counterexample:\n%s", s)
	}
	c := rep.Counterexample.Count()
	if c.RM != c.SM+1 {
		t.Fatalf("counterexample should have rm = sm+1, got sm=%d rm=%d", c.SM, c.RM)
	}
}

func TestSeqnumSafeWithinBounds(t *testing.T) {
	rep, err := Explore(protocol.NewSeqNum(), Config{Messages: 2, MaxDataSends: 4, MaxAckSends: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("seqnum should be safe; counterexample:\n%s", rep.Counterexample)
	}
	if !rep.Exhausted {
		t.Fatalf("bounded space should be exhausted (states=%d)", rep.States)
	}
	if rep.States < 100 {
		t.Fatalf("suspiciously few states explored: %d", rep.States)
	}
}

func TestCntLinearSafeWithinBounds(t *testing.T) {
	rep, err := Explore(protocol.NewCntLinear(), Config{Messages: 2, MaxDataSends: 4, MaxAckSends: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("cntlinear should be safe; counterexample:\n%s", rep.Counterexample)
	}
	if !rep.Exhausted {
		t.Fatal("bounded space should be exhausted")
	}
}

func TestCheatCounterexampleFound(t *testing.T) {
	// cheat(1) accepts one copy early; the explorer needs enough sends to
	// strand a same-bit stale copy across two phases.
	rep, err := Explore(protocol.NewCheat(1), Config{Messages: 3, MaxDataSends: 6, MaxAckSends: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatalf("exhaustive search should break cheat(1): states=%d", rep.States)
	}
	if err := ioa.CheckSafety(rep.Counterexample); err == nil {
		t.Fatal("counterexample passes the checkers")
	}
}

func TestLivelockNoSafetyViolation(t *testing.T) {
	// The livelock protocol never delivers anything: safe (vacuously),
	// just not live. The explorer must exhaust without a violation.
	rep, err := Explore(protocol.NewLivelock(), Config{Messages: 2, MaxDataSends: 3, MaxAckSends: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil || !rep.Exhausted {
		t.Fatalf("livelock is safe but not live: %+v", rep)
	}
}

func TestConstantPayloadConvention(t *testing.T) {
	// Under the all-messages-identical convention, only over-delivery can
	// violate; altbit still falls (rm = sm + 1).
	rep, err := Explore(protocol.NewAltBit(), Config{
		Messages: 2, MaxDataSends: 4, MaxAckSends: 4, ConstantPayload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatal("altbit should fall under the constant-payload convention too")
	}
	if !strings.Contains(rep.Violation.Detail, "rm = sm + 1") {
		t.Fatalf("expected an over-delivery violation, got %v", rep.Violation)
	}
}

func TestAllowDropExploresMoreStates(t *testing.T) {
	base, err := Explore(protocol.NewSeqNum(), Config{Messages: 1, MaxDataSends: 2, MaxAckSends: 2})
	if err != nil {
		t.Fatal(err)
	}
	drop, err := Explore(protocol.NewSeqNum(), Config{
		Messages: 1, MaxDataSends: 2, MaxAckSends: 2, AllowDrop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if drop.States <= base.States {
		t.Fatalf("AllowDrop should widen the space: %d vs %d", drop.States, base.States)
	}
	if drop.Violation != nil {
		t.Fatal("loss alone must not break a correct protocol")
	}
}

func TestMaxStatesTruncates(t *testing.T) {
	rep, err := Explore(protocol.NewSeqNum(), Config{
		Messages: 3, MaxDataSends: 8, MaxAckSends: 8, MaxStates: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhausted {
		t.Fatal("tiny MaxStates should not exhaust the space")
	}
}

func TestDefaultsApplied(t *testing.T) {
	rep, err := Explore(protocol.NewAltBit(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: 2 messages, 6 sends each — enough to break altbit.
	if rep.Violation == nil {
		t.Fatalf("default bounds should break altbit: %+v", rep)
	}
}

func TestTransitionCountsReported(t *testing.T) {
	rep, err := Explore(protocol.NewSeqNum(), Config{Messages: 1, MaxDataSends: 2, MaxAckSends: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transitions == 0 || rep.States == 0 {
		t.Fatalf("counters not reported: %+v", rep)
	}
	if rep.Transitions < rep.States-1 {
		t.Fatalf("transitions (%d) < states-1 (%d)", rep.Transitions, rep.States-1)
	}
}

// --- FIFO discipline: reordering is the decisive property ---

func TestAltbitSafeOverFIFO(t *testing.T) {
	// Over a lossy FIFO channel the alternating bit protocol is correct
	// [BSW69]; the same bounds that break it over non-FIFO exhaust safely
	// here. Reordering — not loss — is what the paper's lower bounds
	// exploit.
	rep, err := Explore(protocol.NewAltBit(), Config{
		Messages: 3, MaxDataSends: 5, MaxAckSends: 5, FIFO: true, AllowDrop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("altbit must be safe over FIFO:\n%s", rep.Counterexample)
	}
	if !rep.Exhausted {
		t.Fatalf("FIFO space should be exhausted (states=%d)", rep.States)
	}
}

func TestAltbitFIFOvsNonFIFOContrast(t *testing.T) {
	cfgBase := Config{Messages: 2, MaxDataSends: 4, MaxAckSends: 4, AllowDrop: true}
	fifoCfg := cfgBase
	fifoCfg.FIFO = true
	fifo, err := Explore(protocol.NewAltBit(), fifoCfg)
	if err != nil {
		t.Fatal(err)
	}
	nonfifo, err := Explore(protocol.NewAltBit(), cfgBase)
	if err != nil {
		t.Fatal(err)
	}
	if fifo.Violation != nil {
		t.Fatal("FIFO: altbit should be safe")
	}
	if nonfifo.Violation == nil {
		t.Fatal("non-FIFO: altbit should be broken")
	}
}

func TestSeqnumSafeOverFIFOToo(t *testing.T) {
	rep, err := Explore(protocol.NewSeqNum(), Config{
		Messages: 2, MaxDataSends: 4, MaxAckSends: 4, FIFO: true, AllowDrop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil || !rep.Exhausted {
		t.Fatalf("seqnum over FIFO: %+v", rep)
	}
}

func TestFIFOSpaceSmallerThanNonFIFO(t *testing.T) {
	// The FIFO discipline has fewer delivery choices, so (at equal
	// bounds, for a protocol safe under both) it explores fewer states.
	cfg := Config{Messages: 2, MaxDataSends: 4, MaxAckSends: 4}
	nf, err := Explore(protocol.NewSeqNum(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FIFO = true
	f, err := Explore(protocol.NewSeqNum(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.States >= nf.States {
		t.Fatalf("FIFO states %d should be < non-FIFO states %d", f.States, nf.States)
	}
}

func TestCountingProtocolsRunUnderLinkGenie(t *testing.T) {
	// The explorer wires counting protocols to a link-backed genie; they
	// must stay safe under both disciplines.
	for _, fifo := range []bool{false, true} {
		rep, err := Explore(protocol.NewCntLinear(), Config{
			Messages: 2, MaxDataSends: 4, MaxAckSends: 4, FIFO: fifo,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violation != nil {
			t.Fatalf("cntlinear broke under fifo=%t:\n%s", fifo, rep.Counterexample)
		}
	}
}

// --- deadlock (DL3) detection ---

func TestDeadlockDetectionBlindAck(t *testing.T) {
	// The distilled stale-ack liveness bug: a transmitter that treats ANY
	// acknowledgement as confirming the current message. A duplicate ack
	// from message 0 falsely confirms message 1 after its only data copy
	// is lost; the channels drain and delivery is permanently stuck. The
	// FIFO discipline keeps the (correct) altbit receiver safe, isolating
	// the liveness failure.
	rep, err := Explore(blindAck{}, Config{
		Messages: 2, MaxDataSends: 4, MaxAckSends: 4,
		FIFO: true, AllowDrop: true, CheckDeadlock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil || rep.Violation.Property != "DL3" {
		t.Fatalf("expected a DL3 deadlock, got %+v", rep)
	}
	if len(rep.Counterexample) == 0 {
		t.Fatal("deadlock counterexample missing")
	}
	if !strings.Contains(rep.Violation.Detail, "deadlock") {
		t.Fatalf("detail = %q", rep.Violation.Detail)
	}
}

func TestDeadlockNotFlaggedForCorrectProtocols(t *testing.T) {
	for _, p := range []protocol.Protocol{protocol.NewSeqNum(), protocol.NewAltBit()} {
		rep, err := Explore(p, Config{
			Messages: 2, MaxDataSends: 4, MaxAckSends: 4,
			FIFO: true, AllowDrop: true, CheckDeadlock: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violation != nil && rep.Violation.Property == "DL3" {
			t.Fatalf("%s: spurious deadlock over FIFO:\n%s", p.Name(), rep.Counterexample)
		}
	}
}

func TestDeadlockNotFlaggedWhenMerelySendCapped(t *testing.T) {
	// The livelock transmitter is always Busy; hitting the send cap with
	// undelivered messages must NOT be reported as a deadlock.
	rep, err := Explore(protocol.NewLivelock(), Config{
		Messages: 1, MaxDataSends: 2, MaxAckSends: 2, CheckDeadlock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("send-capped livelock flagged as deadlock: %+v", rep)
	}
}

// blindAck pairs the correct alternating-bit receiver with a transmitter
// whose only defect is confirming the current message on ANY ack header —
// the distilled form of sequence-space ack aliasing.
type blindAck struct{}

func (blindAck) Name() string             { return "blindack" }
func (blindAck) HeaderBound() (int, bool) { return 4, true }
func (blindAck) New(_, _ channel.Genie) (protocol.Transmitter, protocol.Receiver) {
	_, r := protocol.NewAltBit().New(nil, nil)
	return &blindAckT{}, r
}

type blindAckT struct {
	bit     int
	busy    bool
	payload string
	queue   []string
}

func (t *blindAckT) SendMsg(payload string) {
	if t.busy {
		t.queue = append(t.queue, payload)
		return
	}
	t.busy = true
	t.payload = payload
}

func (t *blindAckT) DeliverPkt(p ioa.Packet) {
	if !t.busy || len(p.Header) == 0 || p.Header[0] != 'a' {
		return
	}
	// The bug: no bit check.
	t.busy = false
	t.payload = ""
	t.bit ^= 1
	if len(t.queue) > 0 {
		t.busy = true
		t.payload = t.queue[0]
		t.queue = t.queue[1:]
	}
}

func (t *blindAckT) NextPkt() (ioa.Packet, bool) {
	if !t.busy {
		return ioa.Packet{}, false
	}
	return ioa.Packet{Header: "d" + fmt.Sprint(t.bit), Payload: t.payload}, true
}

func (t *blindAckT) Busy() bool { return t.busy || len(t.queue) > 0 }

func (t *blindAckT) Reset() { *t = blindAckT{queue: t.queue[:0]} }

func (t *blindAckT) Clone() protocol.Transmitter {
	c := *t
	c.queue = append([]string(nil), t.queue...)
	return &c
}

func (t *blindAckT) AppendStateKey(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, "blindAckT{bit="...), int64(t.bit), 10)
	dst = strconv.AppendBool(append(dst, " busy="...), t.busy)
	dst = strconv.AppendQuote(append(dst, " payload="...), t.payload)
	dst = append(append(dst, " q=["...), strings.Join(t.queue, " ")...)
	return append(dst, "]}"...)
}

func (t *blindAckT) StateSize() int { return 2 + len(t.payload) }

func TestCntKSafeWithinBounds(t *testing.T) {
	rep, err := Explore(protocol.NewCntK(3), Config{Messages: 2, MaxDataSends: 4, MaxAckSends: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("cntk3 should be safe:\n%s", rep.Counterexample)
	}
	if !rep.Exhausted {
		t.Fatal("space should be exhausted")
	}
}

func TestExploreDeterministic(t *testing.T) {
	cfg := Config{Messages: 2, MaxDataSends: 4, MaxAckSends: 4}
	a, err := Explore(protocol.NewAltBit(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(protocol.NewAltBit(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.States != b.States || a.Transitions != b.Transitions ||
		len(a.Counterexample) != len(b.Counterexample) {
		t.Fatalf("explorer nondeterministic: %+v vs %+v", a, b)
	}
	for i := range a.Counterexample {
		if a.Counterexample[i] != b.Counterexample[i] {
			t.Fatal("counterexamples differ between runs")
		}
	}
}
