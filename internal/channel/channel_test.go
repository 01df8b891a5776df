package channel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ioa"
)

func pk(h string) ioa.Packet { return ioa.Packet{Header: h} }

func TestNonFIFOSendDeliver(t *testing.T) {
	c := NewNonFIFO(ioa.TtoR)
	c.Send(pk("a"))
	c.Send(pk("a"))
	c.Send(pk("b"))
	if c.InTransit() != 3 || c.Count(pk("a")) != 2 || c.Count(pk("b")) != 1 {
		t.Fatalf("transit state wrong: %s", c.Key())
	}
	if err := c.Deliver(pk("a")); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if c.InTransit() != 2 || c.Count(pk("a")) != 1 || c.Count(pk("b")) != 1 {
		t.Fatalf("transit after delivery wrong: %s", c.Key())
	}
}

func TestNonFIFODeliverAbsentViolatesPL1(t *testing.T) {
	c := NewNonFIFO(ioa.TtoR)
	if err := c.Deliver(pk("a")); err == nil {
		t.Fatal("delivering an absent packet must fail (PL1 by construction)")
	}
	c.Send(pk("a"))
	if err := c.Deliver(pk("b")); err == nil {
		t.Fatal("delivering a never-sent value must fail")
	}
}

func TestNonFIFODrop(t *testing.T) {
	c := NewNonFIFO(ioa.TtoR)
	c.Send(pk("a"))
	if err := c.Drop(pk("a")); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if c.InTransit() != 0 || c.Count(pk("a")) != 0 {
		t.Fatal("drop left the copy in transit")
	}
	if err := c.Drop(pk("a")); err == nil {
		t.Fatal("dropping an absent packet must fail")
	}
}

func TestNonFIFOCountHeaderAcrossPayloads(t *testing.T) {
	c := NewNonFIFO(ioa.TtoR)
	c.Send(ioa.Packet{Header: "d0", Payload: "x"})
	c.Send(ioa.Packet{Header: "d0", Payload: "y"})
	c.Send(ioa.Packet{Header: "d1", Payload: "x"})
	if got := c.CountHeader("d0"); got != 2 {
		t.Fatalf("CountHeader(d0) = %d, want 2", got)
	}
	if got := c.CountHeader("d1"); got != 1 {
		t.Fatalf("CountHeader(d1) = %d, want 1", got)
	}
	if got := c.CountHeader("zz"); got != 0 {
		t.Fatalf("CountHeader(zz) = %d, want 0", got)
	}
}

func TestNonFIFOCloneIndependence(t *testing.T) {
	c := NewNonFIFO(ioa.TtoR)
	c.Send(pk("a"))
	d := c.Clone()
	if err := d.Deliver(pk("a")); err != nil {
		t.Fatalf("Deliver on clone: %v", err)
	}
	if c.InTransit() != 1 || d.InTransit() != 0 {
		t.Fatal("clone shares state with original")
	}
}

func TestNonFIFOPacketsDeterministic(t *testing.T) {
	c := NewNonFIFO(ioa.TtoR)
	c.Send(pk("b"))
	c.Send(pk("a"))
	ps := c.Packets()
	if len(ps) != 2 || ps[0].Header != "a" || ps[1].Header != "b" {
		t.Fatalf("Packets() = %v", ps)
	}
}

// Property: any interleaving of sends, deliveries and drops keeps
// InTransit equal to the sends minus the deliveries and drops that
// succeeded, and a delivery or drop succeeds exactly when a copy of its
// value was in transit before the call (PL1 by construction).
func TestQuickNonFIFOConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewNonFIFO(ioa.TtoR)
		headers := []string{"a", "b", "c"}
		sent, removed := 0, 0
		for _, op := range ops {
			h := pk(headers[int(op)%len(headers)])
			switch (op / 4) % 3 {
			case 0:
				c.Send(h)
				sent++
			case 1, 2:
				remove := c.Deliver
				if (op/4)%3 == 2 {
					remove = c.Drop
				}
				before := c.Count(h)
				err := remove(h)
				if (err == nil) != (before > 0) {
					return false
				}
				if err == nil {
					removed++
				}
			}
			if c.InTransit() != sent-removed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReliablePolicy(t *testing.T) {
	p := Reliable()
	for i := 0; i < 5; i++ {
		if p.OnSend(pk("a")) != DeliverNow {
			t.Fatal("Reliable must always deliver")
		}
	}
}

func TestDelayAllPolicy(t *testing.T) {
	p := DelayAll()
	for i := 0; i < 5; i++ {
		if p.OnSend(pk("a")) != Delay {
			t.Fatal("DelayAll must always delay")
		}
	}
}

func TestDelayFirstPolicy(t *testing.T) {
	p := DelayFirst(2)
	got := []Decision{p.OnSend(pk("a")), p.OnSend(pk("a")), p.OnSend(pk("a")), p.OnSend(pk("a"))}
	want := []Decision{Delay, Delay, DeliverNow, DeliverNow}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DelayFirst decisions = %v, want %v", got, want)
		}
	}
}

func TestDropEveryPolicy(t *testing.T) {
	p := DropEvery(3)
	var drops int
	for i := 0; i < 9; i++ {
		if p.OnSend(pk("a")) == Drop {
			drops++
		}
	}
	if drops != 3 {
		t.Fatalf("DropEvery(3) over 9 sends dropped %d, want 3", drops)
	}
	// k < 1 is clamped to 1 (drop everything).
	q := DropEvery(0)
	if q.OnSend(pk("a")) != Drop {
		t.Fatal("DropEvery(0) should clamp to dropping every packet")
	}
}

func TestProbabilisticPolicyRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Probabilistic(0.3, rng)
	const n = 20000
	delayed := 0
	for i := 0; i < n; i++ {
		if p.OnSend(pk("a")) == Delay {
			delayed++
		}
	}
	rate := float64(delayed) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("Probabilistic(0.3) delay rate = %.3f", rate)
	}
}

func TestProbabilisticDropPolicyRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := ProbabilisticDrop(0.5, rng)
	const n = 20000
	drops := 0
	for i := 0; i < n; i++ {
		if p.OnSend(pk("a")) == Drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.47 || rate > 0.53 {
		t.Fatalf("ProbabilisticDrop(0.5) drop rate = %.3f", rate)
	}
}

func TestProbabilisticDeterministicUnderSeed(t *testing.T) {
	run := func() []Decision {
		p := Probabilistic(0.5, rand.New(rand.NewSource(42)))
		out := make([]Decision, 20)
		for i := range out {
			out[i] = p.OnSend(pk("a"))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same decisions")
		}
	}
}

func TestScriptPolicy(t *testing.T) {
	p := Script(Delay, Drop)
	if p.OnSend(pk("a")) != Delay || p.OnSend(pk("a")) != Drop {
		t.Fatal("Script must replay its decisions in order")
	}
	if p.OnSend(pk("a")) != DeliverNow {
		t.Fatal("Script must fall back to DeliverNow")
	}
}

func TestGenies(t *testing.T) {
	c := NewNonFIFO(ioa.TtoR)
	c.Send(ioa.Packet{Header: "d0", Payload: "p"})
	c.Send(ioa.Packet{Header: "d0", Payload: "q"})
	g := ChannelGenie{Ch: c}
	if g.Stale("d0") != 2 || g.Stale("d1") != 0 {
		t.Fatalf("ChannelGenie: d0=%d d1=%d", g.Stale("d0"), g.Stale("d1"))
	}
	if (NoGenie{}).Stale("d0") != 0 {
		t.Fatal("NoGenie must always report 0")
	}
}

func TestDecisionString(t *testing.T) {
	if DeliverNow.String() != "deliver" || Delay.String() != "delay" || Drop.String() != "drop" {
		t.Fatal("Decision.String wrong")
	}
}

func TestFIFOOrdering(t *testing.T) {
	c := NewFIFO(ioa.TtoR)
	c.Send(pk("a"))
	c.Send(pk("b"))
	c.Send(pk("c"))
	p1, err := c.DeliverHead()
	if err != nil || p1.Header != "a" {
		t.Fatalf("first delivery = %v, %v", p1, err)
	}
	if err := c.DropHead(); err != nil {
		t.Fatalf("DropHead: %v", err)
	}
	p3, err := c.DeliverHead()
	if err != nil || p3.Header != "c" {
		t.Fatalf("delivery after drop = %v, %v", p3, err)
	}
	if len(c.queue) != 0 {
		t.Fatalf("FIFO queue not empty after two deliveries and a drop: %s", c.Key())
	}
}

func TestFIFOEmptyErrors(t *testing.T) {
	c := NewFIFO(ioa.RtoT)
	if _, err := c.DeliverHead(); err == nil {
		t.Fatal("DeliverHead on empty channel must fail")
	}
	if err := c.DropHead(); err == nil {
		t.Fatal("DropHead on empty channel must fail")
	}
}

func TestFIFOCloneIndependence(t *testing.T) {
	c := NewFIFO(ioa.TtoR)
	c.Send(pk("a"))
	d := c.Clone()
	if _, err := d.DeliverHead(); err != nil {
		t.Fatal(err)
	}
	if len(c.queue) != 1 || len(d.queue) != 0 {
		t.Fatal("FIFO clone shares state")
	}
}

// Property: a FIFO channel delivers exactly the sent sequence (when nothing
// is dropped).
func TestQuickFIFOPreservesOrder(t *testing.T) {
	f := func(hs []uint8) bool {
		c := NewFIFO(ioa.TtoR)
		want := make([]string, len(hs))
		for i, h := range hs {
			s := string(rune('a' + h%8))
			want[i] = s
			c.Send(pk(s))
		}
		for _, w := range want {
			p, err := c.DeliverHead()
			if err != nil || p.Header != w {
				return false
			}
		}
		return len(c.queue) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNonFIFOKey(t *testing.T) {
	c := NewNonFIFO(ioa.TtoR)
	if c.Key() != "{}" {
		t.Fatalf("empty key = %q", c.Key())
	}
	c.Send(pk("a"))
	c.Send(pk("a"))
	d := NewNonFIFO(ioa.TtoR)
	d.Send(pk("a"))
	d.Send(pk("a"))
	if c.Key() != d.Key() {
		t.Fatal("equal contents, different keys")
	}
	d.Send(pk("b"))
	if c.Key() == d.Key() {
		t.Fatal("different contents, same key")
	}
}

func TestDelayPerHeaderPolicy(t *testing.T) {
	p := DelayPerHeader(2)
	decisions := []Decision{
		p.OnSend(pk("a")), // delay (a:1)
		p.OnSend(pk("b")), // delay (b:1)
		p.OnSend(pk("a")), // delay (a:2)
		p.OnSend(pk("a")), // deliver (a over quota)
		p.OnSend(pk("b")), // delay (b:2)
		p.OnSend(pk("b")), // deliver
	}
	want := []Decision{Delay, Delay, Delay, DeliverNow, Delay, DeliverNow}
	for i := range want {
		if decisions[i] != want[i] {
			t.Fatalf("decisions = %v, want %v", decisions, want)
		}
	}
}

func TestFIFOHeadAndCountHeader(t *testing.T) {
	c := NewFIFO(ioa.TtoR)
	if _, ok := c.Head(); ok {
		t.Fatal("empty FIFO has a head")
	}
	c.Send(pk("a"))
	c.Send(pk("b"))
	c.Send(pk("a"))
	h, ok := c.Head()
	if !ok || h.Header != "a" {
		t.Fatalf("Head = %v,%t", h, ok)
	}
	if c.CountHeader("a") != 2 || c.CountHeader("b") != 1 || c.CountHeader("z") != 0 {
		t.Fatal("CountHeader wrong")
	}
}

func TestFIFOKeyOrderSensitive(t *testing.T) {
	c := NewFIFO(ioa.TtoR)
	c.Send(pk("a"))
	c.Send(pk("b"))
	d := NewFIFO(ioa.TtoR)
	d.Send(pk("b"))
	d.Send(pk("a"))
	if c.Key() == d.Key() {
		t.Fatal("FIFO key must be order-sensitive")
	}
	if c.Key() != "[a b]" {
		t.Fatalf("Key = %q", c.Key())
	}
}
