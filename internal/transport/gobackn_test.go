package transport

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

func TestGBNNameAndHeaderBound(t *testing.T) {
	p := NewGoBackN(4, 2)
	if p.Name() != "gbn-s4-w2" {
		t.Fatalf("Name = %q", p.Name())
	}
	if k, bounded := p.HeaderBound(); !bounded || k != 8 {
		t.Fatalf("HeaderBound = %d,%t", k, bounded)
	}
	u := NewGoBackN(0, 3)
	if u.Name() != "gbn-unbounded-w3" {
		t.Fatalf("Name = %q", u.Name())
	}
	if _, bounded := u.HeaderBound(); bounded {
		t.Fatal("unbounded variant should report unbounded")
	}
	if NewGoBackN(0, -1).W != 1 {
		t.Fatal("W should clamp to 1")
	}
}

func TestGBNDeliveryInOrderReliable(t *testing.T) {
	for _, p := range []protocol.Protocol{NewGoBackN(0, 1), NewGoBackN(0, 3), NewGoBackN(16, 4)} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			want := payloads(10)
			res := runBatch(t, p, want, nil, nil)
			if len(res.Delivered) != 10 {
				t.Fatalf("delivered %v", res.Delivered)
			}
			for i := range want {
				if res.Delivered[i] != want[i] {
					t.Fatalf("delivered %v, want %v", res.Delivered, want)
				}
			}
			if err := ioa.CheckValid(res.Trace); err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
		})
	}
}

func TestGBNDeliveryUnderLoss(t *testing.T) {
	res := runBatch(t, NewGoBackN(0, 3), payloads(8),
		channel.DropEvery(3), channel.DropEvery(4))
	if len(res.Delivered) != 8 {
		t.Fatalf("delivered %d of 8", len(res.Delivered))
	}
	if err := ioa.CheckValid(res.Trace); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

func TestGBNUnboundedSafeUnderProbabilisticDelay(t *testing.T) {
	res := runBatch(t, NewGoBackN(0, 3), payloads(10),
		channel.Probabilistic(0.3, rand.New(rand.NewSource(21))),
		channel.Probabilistic(0.2, rand.New(rand.NewSource(22))))
	if len(res.Delivered) != 10 {
		t.Fatalf("delivered %d of 10", len(res.Delivered))
	}
	if err := ioa.CheckValid(res.Trace); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

func TestGBNReceiverNoBuffering(t *testing.T) {
	// Go-back-N drops out-of-order segments: delivering s1 before s0
	// yields nothing; s0 then delivers only m0.
	_, rx := NewGoBackN(0, 3).New(nil, nil)
	rx.DeliverPkt(ioa.Packet{Header: "s1", Payload: "m1"})
	if got := rx.TakeDelivered(); len(got) != 0 {
		t.Fatalf("out-of-order segment delivered: %v", got)
	}
	rx.DeliverPkt(ioa.Packet{Header: "s0", Payload: "m0"})
	got := rx.TakeDelivered()
	if len(got) != 1 || got[0] != "m0" {
		t.Fatalf("delivered %v", got)
	}
}

func TestGBNCumulativeAck(t *testing.T) {
	tx, _ := NewGoBackN(0, 3).New(nil, nil)
	tx.SendMsg("a")
	tx.SendMsg("b")
	tx.SendMsg("c")
	// A single cumulative ack for seq 1 slides past both a and b.
	tx.DeliverPkt(ioa.Packet{Header: "t1"})
	if !strings.Contains(protocol.StateKey(tx), "base=2") {
		t.Fatalf("cumulative ack did not slide: %s", protocol.StateKey(tx))
	}
}

func TestGBNReceiverAcksCumulatively(t *testing.T) {
	_, rx := NewGoBackN(0, 2).New(nil, nil)
	// A duplicate of an old segment triggers a re-ack of the last
	// in-order sequence number.
	rx.DeliverPkt(ioa.Packet{Header: "s0", Payload: "m0"})
	rx.TakeDelivered()
	drainAcks(rx)
	rx.DeliverPkt(ioa.Packet{Header: "s5", Payload: "x"}) // out of order
	a, ok := rx.NextPkt()
	if !ok || a.Header != "t0" {
		t.Fatalf("expected cumulative re-ack t0, got %v,%t", a, ok)
	}
}

func TestGBNWrapAliasByHand(t *testing.T) {
	// S=2: after delivering seqs 0 and 1, the receiver expects seq 2 whose
	// header is s0 again; a stale copy of segment 0 is accepted.
	_, rx := NewGoBackN(2, 1).New(nil, nil)
	rx.DeliverPkt(ioa.Packet{Header: "s0", Payload: "m0"})
	rx.DeliverPkt(ioa.Packet{Header: "s1", Payload: "m1"})
	rx.TakeDelivered()
	rx.DeliverPkt(ioa.Packet{Header: "s0", Payload: "m0"}) // stale replay
	got := rx.TakeDelivered()
	if len(got) != 1 || got[0] != "m0" {
		t.Fatalf("expected the wrap alias to deliver the stale payload, got %v", got)
	}
}

func TestGBNExplorerBreaksBoundedVariant(t *testing.T) {
	rep, err := explore.Explore(NewGoBackN(2, 1), explore.Config{
		Messages: 3, MaxDataSends: 6, MaxAckSends: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatalf("finite sequence space should be breakable: %+v", rep)
	}
	if err := ioa.CheckSafety(rep.Counterexample); err == nil {
		t.Fatal("counterexample passes checkers")
	}
}

func TestGBNExplorerUnboundedSafe(t *testing.T) {
	rep, err := explore.Explore(NewGoBackN(0, 2), explore.Config{
		Messages: 3, MaxDataSends: 6, MaxAckSends: 6, CheckDeadlock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("unbounded gbn should be safe and live:\n%s", rep.Counterexample)
	}
	if !rep.Exhausted {
		t.Fatal("space should be exhausted")
	}
}

func TestGBNStaleAckDeadlock(t *testing.T) {
	// The sender-side alias: with S=2 and window 1, a stale cumulative ack
	// from a previous wrap can confirm a segment the receiver never
	// accepted; the window slides, the channels drain, and delivery is
	// permanently stuck. Loss must be explored for the original copy to
	// vanish.
	rep, err := explore.Explore(NewGoBackN(2, 1), explore.Config{
		Messages: 3, MaxDataSends: 7, MaxAckSends: 7,
		AllowDrop: true, CheckDeadlock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatal("expected a violation (safety alias or ack-alias deadlock)")
	}
}

func TestGBNCloneIndependence(t *testing.T) {
	tx, rx := NewGoBackN(4, 2).New(nil, nil)
	tx.SendMsg("a")
	tc := tx.Clone()
	tc.SendMsg("b")
	if protocol.StateKey(tx) == protocol.StateKey(tc) {
		t.Fatal("sender clone shares state")
	}
	rx.DeliverPkt(ioa.Packet{Header: "s0", Payload: "a"})
	rc := rx.Clone()
	rc.DeliverPkt(ioa.Packet{Header: "s1", Payload: "b"})
	if protocol.StateKey(rx) == protocol.StateKey(rc) {
		t.Fatal("receiver clone shares state")
	}
}

func TestGBNGarbageIgnored(t *testing.T) {
	tx, rx := NewGoBackN(4, 2).New(nil, nil)
	tx.SendMsg("a")
	tx.DeliverPkt(ioa.Packet{Header: "??"})
	tx.DeliverPkt(ioa.Packet{Header: "tZZ"})
	if !tx.Busy() {
		t.Fatal("garbage ack accepted")
	}
	rx.DeliverPkt(ioa.Packet{Header: "sQQ"})
	rx.DeliverPkt(ioa.Packet{Header: "x"})
	if got := rx.TakeDelivered(); len(got) != 0 {
		t.Fatalf("garbage delivered: %v", got)
	}
}
