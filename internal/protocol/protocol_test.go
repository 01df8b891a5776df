package protocol

import (
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
)

// pump performs a lossless "optimal channel" exchange: it repeatedly moves
// one data packet t→r and drains all acks r→t, until the transmitter is no
// longer busy. It returns the number of data packets sent. A step budget
// guards against livelock.
func pump(t *testing.T, tx Transmitter, rx Receiver, budget int) int {
	t.Helper()
	sent := 0
	for steps := 0; tx.Busy(); steps++ {
		if steps > budget {
			t.Fatalf("pump: no progress after %d steps (tx=%s rx=%s)", budget, StateKey(tx), StateKey(rx))
		}
		if p, ok := tx.NextPkt(); ok {
			sent++
			rx.DeliverPkt(p)
		}
		for {
			a, ok := rx.NextPkt()
			if !ok {
				break
			}
			tx.DeliverPkt(a)
		}
	}
	return sent
}

func deliverAll(t *testing.T, rx Receiver) []string {
	t.Helper()
	return rx.TakeDelivered()
}

func TestRegistry(t *testing.T) {
	reg := Registry()
	for _, name := range []string{"altbit", "seqnum", "cntlinear", "cntexp", "cheat1"} {
		p, ok := reg[name]
		if !ok {
			t.Fatalf("registry missing %q", name)
		}
		if p.Name() != name {
			t.Fatalf("registry key %q maps to protocol named %q", name, p.Name())
		}
	}
	names := Names()
	if len(names) != len(reg) {
		t.Fatalf("Names() returned %d entries, registry has %d", len(names), len(reg))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestHeaderBounds(t *testing.T) {
	tests := []struct {
		p       Protocol
		k       int
		bounded bool
	}{
		{NewAltBit(), 4, true},
		{NewSeqNum(), 0, false},
		{NewCntLinear(), 4, true},
		{NewCntExp(), 4, true},
		{NewCheat(2), 4, true},
	}
	for _, tt := range tests {
		k, b := tt.p.HeaderBound()
		if k != tt.k || b != tt.bounded {
			t.Errorf("%s: HeaderBound = (%d,%t), want (%d,%t)", tt.p.Name(), k, b, tt.k, tt.bounded)
		}
	}
}

// --- alternating bit ---

func TestAltBitHandshake(t *testing.T) {
	tx, rx := NewAltBit().New(nil, nil)
	for i, want := range []string{"msg-0", "msg-1", "msg-2"} {
		tx.SendMsg(want)
		sent := pump(t, tx, rx, 100)
		if sent != 1 {
			t.Fatalf("message %d took %d data packets on a perfect channel, want 1", i, sent)
		}
		got := deliverAll(t, rx)
		if len(got) != 1 || got[0] != want {
			t.Fatalf("message %d delivered %v, want [%s]", i, got, want)
		}
	}
}

func TestAltBitRetransmitUntilAck(t *testing.T) {
	tx, rx := NewAltBit().New(nil, nil)
	tx.SendMsg("m")
	// Simulate three lost data packets: NextPkt stays enabled.
	for i := 0; i < 3; i++ {
		p, ok := tx.NextPkt()
		if !ok || p.Header != "d0" {
			t.Fatalf("retransmission %d: got %v,%t", i, p, ok)
		}
	}
	// Deliver one copy; ack returns; transmitter finishes.
	p, _ := tx.NextPkt()
	rx.DeliverPkt(p)
	a, ok := rx.NextPkt()
	if !ok || a.Header != "a0" {
		t.Fatalf("expected a0 ack, got %v,%t", a, ok)
	}
	tx.DeliverPkt(a)
	if tx.Busy() {
		t.Fatal("transmitter still busy after matching ack")
	}
	if _, ok := tx.NextPkt(); ok {
		t.Fatal("idle transmitter should have no enabled output")
	}
}

func TestAltBitIgnoresStaleAck(t *testing.T) {
	tx, _ := NewAltBit().New(nil, nil)
	tx.SendMsg("m")
	tx.DeliverPkt(ioa.Packet{Header: "a1"}) // wrong bit
	if !tx.Busy() {
		t.Fatal("stale ack must not complete the current message")
	}
	tx.DeliverPkt(ioa.Packet{Header: "zz"}) // garbage
	if !tx.Busy() {
		t.Fatal("garbage packet must be ignored")
	}
}

func TestAltBitQueuesMessages(t *testing.T) {
	tx, rx := NewAltBit().New(nil, nil)
	tx.SendMsg("m0")
	tx.SendMsg("m1")
	tx.SendMsg("m2")
	pump(t, tx, rx, 100)
	got := deliverAll(t, rx)
	want := []string{"m0", "m1", "m2"}
	if len(got) != 3 {
		t.Fatalf("delivered %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

// TestAltBitUnsafeOverNonFIFO replays the classic attack by hand: a delayed
// copy of message 0's data packet is accepted as message 2, because after
// two deliveries the receiver expects bit 0 again. This is the executable
// core of the paper's premise.
func TestAltBitUnsafeOverNonFIFO(t *testing.T) {
	tx, rx := NewAltBit().New(nil, nil)

	// Message 0, bit 0. The channel delays one copy of d0 (we keep it).
	tx.SendMsg("m0")
	stale, ok := tx.NextPkt()
	if !ok || stale.Header != "d0" {
		t.Fatalf("expected d0, got %v", stale)
	}
	pump(t, tx, rx, 100) // a later copy gets through
	// Message 1, bit 1.
	tx.SendMsg("m1")
	pump(t, tx, rx, 100)
	deliverAll(t, rx)

	// Receiver now expects bit 0 again. Deliver the stale copy of m0.
	rx.DeliverPkt(stale)
	got := deliverAll(t, rx)
	if len(got) != 1 || got[0] != "m0" {
		t.Fatalf("expected the stale m0 copy to be (wrongly) delivered, got %v", got)
	}
}

func TestAltBitCloneIndependence(t *testing.T) {
	tx, rx := NewAltBit().New(nil, nil)
	tx.SendMsg("m0")
	tx.SendMsg("m1")
	tc := tx.Clone()
	rc := rx.Clone()
	pump(t, tc, rc, 100)
	if !tx.Busy() {
		t.Fatal("running the clone mutated the original transmitter")
	}
	if got := deliverAll(t, rx); len(got) != 0 {
		t.Fatalf("original receiver delivered %v", got)
	}
	if StateKey(tx) == StateKey(tc) {
		t.Fatal("clone state should have diverged")
	}
}

// --- sequence numbers ---

func TestSeqNumHandshake(t *testing.T) {
	tx, rx := NewSeqNum().New(nil, nil)
	for i, want := range []string{"m0", "m1", "m2", "m3"} {
		tx.SendMsg(want)
		sent := pump(t, tx, rx, 100)
		if sent != 1 {
			t.Fatalf("message %d took %d packets, want 1", i, sent)
		}
		got := deliverAll(t, rx)
		if len(got) != 1 || got[0] != want {
			t.Fatalf("message %d delivered %v", i, got)
		}
	}
}

func TestSeqNumHeadersGrowWithMessages(t *testing.T) {
	tx, rx := NewSeqNum().New(nil, nil)
	headers := make(map[string]bool)
	for i := 0; i < 8; i++ {
		tx.SendMsg("x")
		p, ok := tx.NextPkt()
		if !ok {
			t.Fatal("no packet")
		}
		headers[p.Header] = true
		rx.DeliverPkt(p)
		for {
			a, ok := rx.NextPkt()
			if !ok {
				break
			}
			headers[a.Header] = true
			tx.DeliverPkt(a)
		}
	}
	// 8 data headers + 8 ack headers.
	if len(headers) != 16 {
		t.Fatalf("distinct headers = %d, want 16", len(headers))
	}
}

func TestSeqNumStaleDataReAckedNotDelivered(t *testing.T) {
	tx, rx := NewSeqNum().New(nil, nil)
	tx.SendMsg("m0")
	stale, _ := tx.NextPkt() // keep a delayed copy of d0
	pump(t, tx, rx, 100)
	deliverAll(t, rx)

	rx.DeliverPkt(stale) // replay
	if got := deliverAll(t, rx); len(got) != 0 {
		t.Fatalf("stale d0 copy was delivered: %v", got)
	}
	a, ok := rx.NextPkt()
	if !ok || a.Header != "a0" {
		t.Fatalf("stale data should be re-acked with a0, got %v,%t", a, ok)
	}
}

func TestSeqNumIgnoresFutureAndGarbage(t *testing.T) {
	tx, rx := NewSeqNum().New(nil, nil)
	tx.SendMsg("m0")
	rx.DeliverPkt(ioa.Packet{Header: "d5", Payload: "future"})
	rx.DeliverPkt(ioa.Packet{Header: "zz"})
	rx.DeliverPkt(ioa.Packet{Header: "dX"})
	if got := deliverAll(t, rx); len(got) != 0 {
		t.Fatalf("garbage delivered: %v", got)
	}
	tx.DeliverPkt(ioa.Packet{Header: "a7"}) // ack for a future message
	if !tx.Busy() {
		t.Fatal("future ack must be ignored")
	}
}

func TestSeqNumStaleAckIgnored(t *testing.T) {
	tx, rx := NewSeqNum().New(nil, nil)
	tx.SendMsg("m0")
	pump(t, tx, rx, 100)
	tx.SendMsg("m1")
	tx.DeliverPkt(ioa.Packet{Header: "a0"}) // stale ack from message 0
	if !tx.Busy() {
		t.Fatal("stale ack a0 must not confirm message 1")
	}
}

func TestSeqNumSpaceIsLogarithmic(t *testing.T) {
	tx, rx := NewSeqNum().New(nil, nil)
	for i := 0; i < 100; i++ {
		tx.SendMsg("x")
		pump(t, tx, rx, 100)
		deliverAll(t, rx)
	}
	// seq = 100: state is the decimal counter, a few bytes.
	if tx.StateSize() > 8 {
		t.Fatalf("seqnum transmitter state = %d units after 100 messages, want O(log n)", tx.StateSize())
	}
}

// --- counting protocols ---

// genieStub is a scriptable stale-count oracle.
type genieStub struct{ stale map[string]int }

func (g genieStub) Stale(h string) int { return g.stale[h] }

func TestCountingHandshakePerfectChannel(t *testing.T) {
	for _, proto := range []Protocol{NewCntLinear(), NewCntExp(), NewCheat(1)} {
		t.Run(proto.Name(), func(t *testing.T) {
			tx, rx := proto.New(channel.NoGenie{}, channel.NoGenie{})
			for i, want := range []string{"m0", "m1", "m2", "m3"} {
				tx.SendMsg(want)
				pump(t, tx, rx, 10000)
				got := deliverAll(t, rx)
				if len(got) != 1 || got[0] != want {
					t.Fatalf("message %d delivered %v, want [%s]", i, got, want)
				}
			}
		})
	}
}

// TestCntLinearRefusesStaleFlood: with S stale copies snapshotted, the
// receiver must not accept after only S same-bit copies.
func TestCntLinearRefusesStaleFlood(t *testing.T) {
	const S = 5
	g := genieStub{stale: map[string]int{"c0": S}}
	_, rx := NewCntLinear().New(g, channel.NoGenie{})

	// A fresh receiver snapshots c0 through the genie: staleSnap = S.
	stale := ioa.Packet{Header: "c0", Payload: "old"}
	for i := 0; i < S; i++ {
		rx.DeliverPkt(stale)
	}
	if got := rx.TakeDelivered(); len(got) != 0 {
		t.Fatalf("receiver accepted after only %d copies with %d stale: %v", S, S, got)
	}
	// One more copy crosses the threshold.
	rx.DeliverPkt(stale)
	if got := rx.TakeDelivered(); len(got) != 1 {
		t.Fatalf("receiver should accept after %d copies, got %v", S+1, got)
	}
}

// TestCheatAcceptsStaleFlood: the under-provisioned receiver accepts d
// copies early — this is the unsafe gap the replay adversary exploits.
func TestCheatAcceptsStaleFlood(t *testing.T) {
	const S = 5
	g := genieStub{stale: map[string]int{"c0": S}}
	_, rx := NewCheat(2).New(g, channel.NoGenie{})
	stale := ioa.Packet{Header: "c0", Payload: "old"}
	for i := 0; i < S-1; i++ { // S−d+1 = 4 copies suffice for d=2
		rx.DeliverPkt(stale)
	}
	if got := rx.TakeDelivered(); len(got) != 1 || got[0] != "old" {
		t.Fatalf("cheat receiver should have (unsafely) accepted, got %v", got)
	}
}

// TestCountingPayloadBinding: the threshold is per payload, so S stale
// copies of an old payload cannot push a different payload over the line.
func TestCountingPayloadBinding(t *testing.T) {
	const S = 3
	g := genieStub{stale: map[string]int{"c0": S}}
	_, rx := NewCntLinear().New(g, channel.NoGenie{})
	for i := 0; i < S; i++ {
		rx.DeliverPkt(ioa.Packet{Header: "c0", Payload: "old"})
	}
	rx.DeliverPkt(ioa.Packet{Header: "c0", Payload: "new"})
	if got := rx.TakeDelivered(); len(got) != 0 {
		t.Fatalf("mixed payloads must not cross the per-payload threshold: %v", got)
	}
	// Three more copies of "new" (total 4 > 3) do cross it.
	for i := 0; i < S; i++ {
		rx.DeliverPkt(ioa.Packet{Header: "c0", Payload: "new"})
	}
	if got := rx.TakeDelivered(); len(got) != 1 || got[0] != "new" {
		t.Fatalf("fresh payload should be delivered after crossing threshold: %v", got)
	}
}

// TestCntExpThresholdDoubles: on a perfect channel, per-message data cost
// of the pessimistic protocol roughly doubles per same-bit phase — the
// "exponential even in the best case" behaviour the paper attributes to
// [AFWZ88].
func TestCntExpThresholdDoubles(t *testing.T) {
	tx, rx := NewCntExp().New(channel.NoGenie{}, channel.NoGenie{})
	var costs []int
	for i := 0; i < 8; i++ {
		tx.SendMsg("x")
		costs = append(costs, pump(t, tx, rx, 1<<20))
		deliverAll(t, rx)
	}
	// Compare same-parity phases: cost must be strictly increasing and at
	// least geometric with ratio ≥ 1.5 after the first few phases.
	for i := 4; i < len(costs); i++ {
		if costs[i] < costs[i-2]*2-2 {
			t.Fatalf("cntexp costs %v: phase %d (%d) not ≈2× phase %d (%d)",
				costs, i, costs[i], i-2, costs[i-2])
		}
	}
	if costs[7] < 8 {
		t.Fatalf("cntexp cost should be exponential; costs = %v", costs)
	}
}

// TestCntLinearCostTracksStale: with S stale copies reported, delivering a
// message costs about S+1 data packets — linear in in-transit, the
// Theorem 4.1 tight shape.
func TestCntLinearCostTracksStale(t *testing.T) {
	for _, S := range []int{0, 1, 4, 16, 64} {
		// The transmitter floods; the receiver needs S+1 fresh copies.
		g := genieStub{stale: map[string]int{"c0": S}}
		tx, rx := NewCntLinear().New(g, channel.NoGenie{})
		tx.SendMsg("m")
		sent := pump(t, tx, rx, 1<<20)
		if sent != S+1 {
			t.Fatalf("stale=%d: sent %d data packets, want %d", S, sent, S+1)
		}
	}
}

func TestCountingStaleDataOfAcceptedPhaseReAcked(t *testing.T) {
	tx, rx := NewCntLinear().New(channel.NoGenie{}, channel.NoGenie{})
	tx.SendMsg("m0")
	pump(t, tx, rx, 1000)
	deliverAll(t, rx)
	// Receiver expects c1 now; a stale c0 copy must be re-acked (k0), not
	// delivered.
	rx.DeliverPkt(ioa.Packet{Header: "c0", Payload: "m0"})
	if got := rx.TakeDelivered(); len(got) != 0 {
		t.Fatalf("stale c0 delivered: %v", got)
	}
	a, ok := rx.NextPkt()
	if !ok || a.Header != "k0" {
		t.Fatalf("stale c0 should be re-acked with k0, got %v,%t", a, ok)
	}
}

func TestCountingUnexpectedBitNotAckedBeforeFirstAccept(t *testing.T) {
	_, rx := NewCntLinear().New(channel.NoGenie{}, channel.NoGenie{})
	// Nothing accepted yet; a c1 copy (adversarial) must not be acked.
	rx.DeliverPkt(ioa.Packet{Header: "c1", Payload: "x"})
	if _, ok := rx.NextPkt(); ok {
		t.Fatal("receiver acked a bit it never accepted")
	}
}

func TestCountingTransmitterIgnoresWrongBitAcks(t *testing.T) {
	tx, _ := NewCntLinear().New(channel.NoGenie{}, channel.NoGenie{})
	tx.SendMsg("m")
	tx.DeliverPkt(ioa.Packet{Header: "k1"}) // stale ack of the other bit
	if !tx.Busy() {
		t.Fatal("wrong-bit ack must not confirm the phase")
	}
	tx.DeliverPkt(ioa.Packet{Header: "k0"}) // threshold 0: one fresh ack suffices
	if tx.Busy() {
		t.Fatal("fresh ack should confirm the phase")
	}
}

// TestCountingTransmitterAckThreshold: with stale acks on the reverse
// channel, the transmitter needs stale+1 same-bit acks.
func TestCountingTransmitterAckThreshold(t *testing.T) {
	const S = 3
	g := genieStub{stale: map[string]int{"k0": S}}
	tx, _ := NewCntLinear().New(channel.NoGenie{}, g)
	tx.SendMsg("m")
	for i := 0; i < S; i++ {
		tx.DeliverPkt(ioa.Packet{Header: "k0"})
		if !tx.Busy() {
			t.Fatalf("transmitter confirmed after %d acks with %d stale", i+1, S)
		}
	}
	tx.DeliverPkt(ioa.Packet{Header: "k0"})
	if tx.Busy() {
		t.Fatal("transmitter should confirm after stale+1 acks")
	}
}

func TestCountingCloneIndependence(t *testing.T) {
	tx, rx := NewCntLinear().New(channel.NoGenie{}, channel.NoGenie{})
	tx.SendMsg("m0")
	tc, rc := tx.Clone(), rx.Clone()
	pump(t, tc, rc, 1000)
	if !tx.Busy() {
		t.Fatal("original transmitter mutated by clone run")
	}
	if got := rx.TakeDelivered(); len(got) != 0 {
		t.Fatalf("original receiver delivered %v", got)
	}
	// Receiver clone's fresh map must be independent.
	rx.DeliverPkt(ioa.Packet{Header: "c0", Payload: "m0"})
	rc2 := rx.Clone()
	rx.DeliverPkt(ioa.Packet{Header: "c0", Payload: "m0"})
	if StateKey(rx) == StateKey(rc2) {
		t.Fatal("receiver clone shares fresh-count state")
	}
}

func TestStateKeysDiffer(t *testing.T) {
	// State keys must reflect state: same-config endpoints agree, then
	// diverge after an input.
	for _, proto := range []Protocol{NewAltBit(), NewSeqNum(), NewCntLinear(), NewCntExp()} {
		t.Run(proto.Name(), func(t *testing.T) {
			t1, r1 := proto.New(channel.NoGenie{}, channel.NoGenie{})
			t2, r2 := proto.New(channel.NoGenie{}, channel.NoGenie{})
			if StateKey(t1) != StateKey(t2) || StateKey(r1) != StateKey(r2) {
				t.Fatal("fresh endpoints should have equal state keys")
			}
			t1.SendMsg("m")
			if StateKey(t1) == StateKey(t2) {
				t.Fatal("SendMsg should change the transmitter state key")
			}
			if p, ok := t1.NextPkt(); ok {
				r1.DeliverPkt(p)
				if StateKey(r1) == StateKey(r2) {
					t.Fatal("DeliverPkt should change the receiver state key")
				}
			}
		})
	}
}

func TestCountingStateSizeGrowsWithCounters(t *testing.T) {
	g := genieStub{stale: map[string]int{"c0": 100000}}
	_, rx := NewCntLinear().New(g, channel.NoGenie{})
	small, _ := NewCntLinear().New(channel.NoGenie{}, channel.NoGenie{})
	_ = small
	_, rx0 := NewCntLinear().New(channel.NoGenie{}, channel.NoGenie{})
	if rx.StateSize() <= rx0.StateSize() {
		t.Fatalf("state size should grow with counter magnitude: %d vs %d",
			rx.StateSize(), rx0.StateSize())
	}
	if !strings.Contains(StateKey(rx), "stale=100000") {
		t.Fatalf("state key should expose the stale counter: %s", StateKey(rx))
	}
}

func TestCountingModeString(t *testing.T) {
	if modeLinear.String() != "cntlinear" || modeExp.String() != "cntexp" || modeCheat.String() != "cheat" {
		t.Fatal("mode strings wrong")
	}
}

// --- payload-binding ablation ---

func TestCntNoBindHandshake(t *testing.T) {
	tx, rx := NewCntNoBind().New(channel.NoGenie{}, channel.NoGenie{})
	for _, want := range []string{"m0", "m1", "m2"} {
		tx.SendMsg(want)
		pump(t, tx, rx, 10000)
		got := deliverAll(t, rx)
		if len(got) != 1 || got[0] != want {
			t.Fatalf("delivered %v, want [%s]", got, want)
		}
	}
}

// TestCntNoBindMixingAttack shows why the threshold must bind payloads:
// with S stale copies and one fresh copy, the pooled counter crosses on a
// stale copy and delivers the stale payload.
func TestCntNoBindMixingAttack(t *testing.T) {
	const S = 3
	g := genieStub{stale: map[string]int{"c0": S}}
	_, rx := NewCntNoBind().New(g, channel.NoGenie{})
	// One fresh copy first, then the stale pool: the S+1'th copy is stale.
	rx.DeliverPkt(ioa.Packet{Header: "c0", Payload: "fresh"})
	for i := 0; i < S; i++ {
		rx.DeliverPkt(ioa.Packet{Header: "c0", Payload: "stale"})
	}
	got := rx.TakeDelivered()
	if len(got) != 1 || got[0] != "stale" {
		t.Fatalf("ablated receiver should deliver the stale payload, got %v", got)
	}
	// The bound receiver resists the identical schedule.
	_, rx2 := NewCntLinear().New(g, channel.NoGenie{})
	rx2.DeliverPkt(ioa.Packet{Header: "c0", Payload: "fresh"})
	for i := 0; i < S; i++ {
		rx2.DeliverPkt(ioa.Packet{Header: "c0", Payload: "stale"})
	}
	if got := rx2.TakeDelivered(); len(got) != 0 {
		t.Fatalf("bound receiver should resist, delivered %v", got)
	}
}
