package protocol

import (
	"fmt"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
)

// everyProtocol lists every descriptor in the package, including the
// deliberately broken ones: the endpoint *interface contract* must hold for
// all of them, whatever their protocol-level correctness.
func everyProtocol() []Protocol {
	return []Protocol{
		NewSeqNum(),
		NewAltBit(),
		NewCntLinear(),
		NewCntExp(),
		NewCntK(2),
		NewCntK(5),
		NewCheat(1),
		NewCheat(3),
		NewCntNoBind(),
		NewLivelock(),
		NewStabDL(2),
		NewStabNaive(),
	}
}

// countingGenie is a Genie that counts its Stale calls.
type countingGenie struct{ reads int }

func (g *countingGenie) Stale(string) int {
	g.reads++
	return 0
}

// TestContractAppendKeysMatch: the allocation-free Append*Key renderings
// must stay byte-identical to the string-returning StateKey/ControlKey at
// every reachable state — the interned cores dedup and hash on the appended
// bytes, so a divergence here is a silent wrong-answer in verify and fuzz.
// The endpoints are driven through a full exchange (including an ack round
// trip and a duplicate delivery) so conditional key segments show up.
//
// At every step it also holds the genie contract (AckGenieUser): rendering
// keys, Busy and Clone read no genie, because the prover shares unstepped
// endpoints whose genies are bound to stale channels. As a control, the
// genie users' own steps must read theirs.
func TestContractAppendKeysMatch(t *testing.T) {
	for _, p := range everyProtocol() {
		g := &countingGenie{}
		tx, rx := p.New(g, g)
		check := func(step string) {
			t.Helper()
			before := g.reads
			defer func() {
				t.Helper()
				if g.reads != before {
					t.Fatalf("%s %s: rendering keys, Busy and Clone read the genie %d time(s)", p.Name(), step, g.reads-before)
				}
			}()
			_, _ = tx.Busy(), tx.Clone()
			_ = rx.Clone()
			if got, want := string(AppendStateKeyOf(nil, tx)), tx.StateKey(); got != want {
				t.Fatalf("%s %s: transmitter AppendStateKey %q != StateKey %q", p.Name(), step, got, want)
			}
			if got, want := string(AppendStateKeyOf(nil, rx)), rx.StateKey(); got != want {
				t.Fatalf("%s %s: receiver AppendStateKey %q != StateKey %q", p.Name(), step, got, want)
			}
			if got, want := string(AppendControlKeyOf(nil, tx)), ControlKeyOf(tx); got != want {
				t.Fatalf("%s %s: transmitter AppendControlKey %q != ControlKeyOf %q", p.Name(), step, got, want)
			}
			if got, want := string(AppendControlKeyOf(nil, rx)), ControlKeyOf(rx); got != want {
				t.Fatalf("%s %s: receiver AppendControlKey %q != ControlKeyOf %q", p.Name(), step, got, want)
			}
			// Appending must extend, not clobber, an existing prefix.
			pre := []byte("prefix|")
			if got := string(AppendStateKeyOf(pre, tx)); got != "prefix|"+tx.StateKey() {
				t.Fatalf("%s %s: AppendStateKeyOf clobbered its prefix: %q", p.Name(), step, got)
			}
		}
		check("fresh")
		for round := 0; round < 3; round++ {
			tx.SendMsg(fmt.Sprintf("m%d", round))
			check("after SendMsg")
			pkt, ok := tx.NextPkt()
			if !ok {
				break
			}
			check("after NextPkt")
			rx.DeliverPkt(pkt)
			rx.DeliverPkt(pkt) // duplicate delivery: hits the stale branches
			rx.TakeDelivered()
			check("after DeliverPkt")
			for {
				ack, ok := rx.NextPkt()
				if !ok {
					break
				}
				tx.DeliverPkt(ack)
			}
			check("after ack round")
		}
		_, tUser := tx.(AckGenieUser)
		_, rUser := rx.(DataGenieUser)
		if (tUser || rUser) && g.reads == 0 {
			t.Fatalf("%s: a genie user's steps never read its genie", p.Name())
		}
	}
}

// TestContractDescriptor: Name is non-empty and stable; HeaderBound is
// consistent with itself.
func TestContractDescriptor(t *testing.T) {
	for _, p := range everyProtocol() {
		if p.Name() == "" || p.Name() != p.Name() {
			t.Fatalf("%T: bad Name", p)
		}
		k1, b1 := p.HeaderBound()
		k2, b2 := p.HeaderBound()
		if k1 != k2 || b1 != b2 {
			t.Fatalf("%s: HeaderBound not stable", p.Name())
		}
		if b1 && k1 <= 0 {
			t.Fatalf("%s: bounded alphabet with k=%d", p.Name(), k1)
		}
	}
}

// TestContractNilGenies: every protocol must accept nil genies.
func TestContractNilGenies(t *testing.T) {
	for _, p := range everyProtocol() {
		tx, rx := p.New(nil, nil)
		if tx == nil || rx == nil {
			t.Fatalf("%s: nil endpoints", p.Name())
		}
		// Endpoints must be usable immediately.
		tx.SendMsg("m")
		_, _ = tx.NextPkt()
		rx.DeliverPkt(ioa.Packet{Header: "??"})
		_ = rx.TakeDelivered()
	}
}

// TestContractFreshEndpointsAgree: two fresh pairs have identical state
// keys, and the keys change (or at least remain valid) under inputs.
func TestContractFreshEndpointsAgree(t *testing.T) {
	for _, p := range everyProtocol() {
		t1, r1 := p.New(channel.NoGenie{}, channel.NoGenie{})
		t2, r2 := p.New(channel.NoGenie{}, channel.NoGenie{})
		if t1.StateKey() != t2.StateKey() {
			t.Fatalf("%s: fresh transmitters differ: %s vs %s", p.Name(), t1.StateKey(), t2.StateKey())
		}
		if r1.StateKey() != r2.StateKey() {
			t.Fatalf("%s: fresh receivers differ", p.Name())
		}
		t1.SendMsg("m")
		if t1.StateKey() == t2.StateKey() {
			t.Fatalf("%s: SendMsg did not change the transmitter state key", p.Name())
		}
	}
}

// TestContractCloneIsDeep: mutating a clone never affects the original.
func TestContractCloneIsDeep(t *testing.T) {
	for _, p := range everyProtocol() {
		tx, rx := p.New(channel.NoGenie{}, channel.NoGenie{})
		tx.SendMsg("m0")
		tx.SendMsg("m1") // exercise the queue path
		keyT := tx.StateKey()
		tc := tx.Clone()
		tc.SendMsg("m2")
		if pk, ok := tc.NextPkt(); ok {
			rx.DeliverPkt(pk) // receiver of the ORIGINAL pair; harmless
		}
		tc.DeliverPkt(ioa.Packet{Header: "k0"})
		tc.DeliverPkt(ioa.Packet{Header: "a0"})
		if tx.StateKey() != keyT {
			t.Fatalf("%s: clone mutation changed original transmitter", p.Name())
		}

		rx2 := rx.Clone()
		keyR := rx.StateKey()
		rx2.DeliverPkt(ioa.Packet{Header: "d0", Payload: "x"})
		rx2.DeliverPkt(ioa.Packet{Header: "c0", Payload: "x"})
		_, _ = rx2.NextPkt()
		_ = rx2.TakeDelivered()
		if rx.StateKey() != keyR {
			t.Fatalf("%s: clone mutation changed original receiver", p.Name())
		}
	}
}

// TestContractStateSizePositive: the space proxy is positive once a
// message is pending, and never negative.
func TestContractStateSizePositive(t *testing.T) {
	for _, p := range everyProtocol() {
		tx, rx := p.New(channel.NoGenie{}, channel.NoGenie{})
		if tx.StateSize() < 0 || rx.StateSize() < 0 {
			t.Fatalf("%s: negative state size", p.Name())
		}
		tx.SendMsg("payload")
		if tx.StateSize() <= 0 {
			t.Fatalf("%s: state size should be positive with a pending message", p.Name())
		}
	}
}

// TestContractBusyDrivesOutput: while Busy, correct protocols must keep an
// output action enabled (retransmission); when idle, no data output.
func TestContractBusyDrivesOutput(t *testing.T) {
	for _, p := range everyProtocol() {
		tx, _ := p.New(channel.NoGenie{}, channel.NoGenie{})
		if tx.Busy() {
			t.Fatalf("%s: fresh transmitter busy", p.Name())
		}
		if _, ok := tx.NextPkt(); ok {
			t.Fatalf("%s: idle transmitter has enabled output", p.Name())
		}
		tx.SendMsg("m")
		if !tx.Busy() {
			t.Fatalf("%s: transmitter not busy after SendMsg", p.Name())
		}
		for i := 0; i < 3; i++ {
			if _, ok := tx.NextPkt(); !ok {
				t.Fatalf("%s: busy transmitter must keep an output enabled (step %d)", p.Name(), i)
			}
		}
	}
}

// TestContractGarbageTolerance: endpoints must ignore packets outside
// their alphabet without panicking or delivering.
func TestContractGarbageTolerance(t *testing.T) {
	garbage := []ioa.Packet{
		{}, {Header: "zz"}, {Header: "d"}, {Header: "a"}, {Header: "c"},
		{Header: "k"}, {Header: "s"}, {Header: "t"}, {Header: "dXY"},
		{Header: "c9:9"}, {Header: "k9:9"}, {Header: "sNaN", Payload: "x"},
	}
	for _, p := range everyProtocol() {
		tx, rx := p.New(channel.NoGenie{}, channel.NoGenie{})
		tx.SendMsg("m")
		for _, g := range garbage {
			tx.DeliverPkt(g)
			rx.DeliverPkt(g)
		}
		if got := rx.TakeDelivered(); len(got) != 0 {
			t.Fatalf("%s: garbage delivered: %v", p.Name(), got)
		}
	}
}

// TestContractGenieRebinding: endpoints that consult genies must expose
// the rebinding hooks and tolerate nil.
func TestContractGenieRebinding(t *testing.T) {
	for _, p := range []Protocol{NewCntLinear(), NewCntExp(), NewCheat(1), NewCntNoBind(), NewCntK(3)} {
		tx, rx := p.New(channel.NoGenie{}, channel.NoGenie{})
		tu, ok := tx.(AckGenieUser)
		if !ok {
			t.Fatalf("%s: transmitter lacks AckGenieUser", p.Name())
		}
		tu.SetAckGenie(nil) // must coerce to NoGenie, not panic later
		ru, ok := rx.(DataGenieUser)
		if !ok {
			t.Fatalf("%s: receiver lacks DataGenieUser", p.Name())
		}
		ru.SetDataGenie(nil)
		tx.SendMsg("m")
		if pk, ok := tx.NextPkt(); ok {
			rx.DeliverPkt(pk)
		}
	}
}

// TestContractQueueing: submitting k messages delivers all k in order over
// a perfect exchange (livelock excluded — it is deliberately not live).
func TestContractQueueing(t *testing.T) {
	for _, p := range everyProtocol() {
		if p.Name() == "livelock" {
			continue
		}
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			tx, rx := p.New(channel.NoGenie{}, channel.NoGenie{})
			var want []string
			for i := 0; i < 5; i++ {
				want = append(want, fmt.Sprintf("q%d", i))
				tx.SendMsg(want[i])
			}
			var got []string
			for steps := 0; tx.Busy() && steps < 1<<16; steps++ {
				if pk, ok := tx.NextPkt(); ok {
					rx.DeliverPkt(pk)
				}
				for {
					a, ok := rx.NextPkt()
					if !ok {
						break
					}
					tx.DeliverPkt(a)
				}
				got = append(got, rx.TakeDelivered()...)
			}
			if len(got) != len(want) {
				t.Fatalf("delivered %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivered %v, want %v", got, want)
				}
			}
		})
	}
}

// TestContractStateKeyReflectsQueue: queued payloads must be part of the
// state key (adversaries rely on it for memoization).
func TestContractStateKeyReflectsQueue(t *testing.T) {
	for _, p := range everyProtocol() {
		if p.Name() == "livelock" {
			continue // single-flag state; no queue
		}
		t1, _ := p.New(channel.NoGenie{}, channel.NoGenie{})
		t2, _ := p.New(channel.NoGenie{}, channel.NoGenie{})
		t1.SendMsg("a")
		t1.SendMsg("x")
		t2.SendMsg("a")
		t2.SendMsg("y")
		if t1.StateKey() == t2.StateKey() {
			t.Fatalf("%s: state key ignores queued payloads", p.Name())
		}
	}
}

// TestContractIdleNextPktPure: an unproductive NextPkt must not change the
// endpoint's observable state. The simulator's mutation version counter
// (sim.Runner.Version) does not advance on a failed output step, and the
// interned fuzz core reuses cached coverage points across it — a protocol
// that mutates on idle NextPkt would silently break that reuse.
func TestContractIdleNextPktPure(t *testing.T) {
	for _, p := range everyProtocol() {
		tx, rx := p.New(channel.NoGenie{}, channel.NoGenie{})
		// Drain the receiver so both endpoints are idle.
		for {
			if _, ok := rx.NextPkt(); !ok {
				break
			}
		}
		for i := 0; i < 3; i++ {
			kt, kr := tx.StateKey(), rx.StateKey()
			if _, ok := tx.NextPkt(); ok {
				t.Fatalf("%s: idle transmitter produced output", p.Name())
			}
			if _, ok := rx.NextPkt(); ok {
				t.Fatalf("%s: drained receiver produced output", p.Name())
			}
			if tx.StateKey() != kt || rx.StateKey() != kr {
				t.Fatalf("%s: unproductive NextPkt mutated state", p.Name())
			}
		}
	}
}
