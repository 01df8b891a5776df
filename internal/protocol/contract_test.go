package protocol

import (
	"fmt"
	"math/rand"
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

// TestContractAppendKeys: both key renderers extend, never clobber, the
// caller's buffer with a non-empty key at every reachable state — the
// interned cores render each key into the tail of a reused buffer. The
// endpoints are driven through a full exchange (including an ack round trip
// and a duplicate delivery) so conditional key segments show up.
//
// At every step it also holds the genie contract (AckGenieUser): rendering
// keys, Busy and Clone read no genie, because the prover shares unstepped
// endpoints whose genies are bound to stale channels. As a control, the
// genie users' own steps must read theirs.
func TestContractAppendKeys(t *testing.T) {
	for _, p := range everyProtocol() {
		g := &countingGenie{}
		tx, rx := p.New(g, g)
		extends := func(step, what string, render func([]byte) []byte) {
			t.Helper()
			pre := []byte("prefix|")
			got := render(pre)
			if len(got) <= len(pre) || string(got[:len(pre)]) != "prefix|" {
				t.Fatalf("%s %s: %s did not extend its prefix with a key: %q", p.Name(), step, what, got)
			}
		}
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
			extends(step, "transmitter AppendStateKey", tx.AppendStateKey)
			extends(step, "receiver AppendStateKey", rx.AppendStateKey)
			extends(step, "transmitter control key", func(b []byte) []byte { return AppendControlKey(b, tx) })
			extends(step, "receiver control key", func(b []byte) []byte { return AppendControlKey(b, rx) })
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
		if StateKey(t1) != StateKey(t2) {
			t.Fatalf("%s: fresh transmitters differ: %s vs %s", p.Name(), StateKey(t1), StateKey(t2))
		}
		if StateKey(r1) != StateKey(r2) {
			t.Fatalf("%s: fresh receivers differ", p.Name())
		}
		t1.SendMsg("m")
		if StateKey(t1) == StateKey(t2) {
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
		keyT := StateKey(tx)
		tc := tx.Clone()
		tc.SendMsg("m2")
		if pk, ok := tc.NextPkt(); ok {
			rx.DeliverPkt(pk) // receiver of the ORIGINAL pair; harmless
		}
		tc.DeliverPkt(ioa.Packet{Header: "k0"})
		tc.DeliverPkt(ioa.Packet{Header: "a0"})
		if StateKey(tx) != keyT {
			t.Fatalf("%s: clone mutation changed original transmitter", p.Name())
		}

		rx2 := rx.Clone()
		keyR := StateKey(rx)
		rx2.DeliverPkt(ioa.Packet{Header: "d0", Payload: "x"})
		rx2.DeliverPkt(ioa.Packet{Header: "c0", Payload: "x"})
		_, _ = rx2.NextPkt()
		_ = rx2.TakeDelivered()
		if StateKey(rx) != keyR {
			t.Fatalf("%s: clone mutation changed original receiver", p.Name())
		}
	}

	// The other direction matters because pops shift a queue down in place:
	// popping and refilling the original's queues after cloning must leave
	// the clone's state, and the acks it has queued, as they were. A pair
	// built the same way and never touched stands in for the clone.
	for _, p := range append(everyProtocol(), NewArrival()) {
		tx, rx := queuedPair(p)
		wantT, wantR := queuedPair(p)
		tc, rc := tx.Clone(), rx.Clone()
		queuedPairRounds(tx, rx, 8)
		samePair(t, p.Name()+": popping the original changed its clone", tc, rc, wantT, wantR)
	}

	// Reset keeps an endpoint's storage, so a clone sharing any of its
	// original's would write into the original once reset and refilled.
	// Resetting and refilling clones of a queued pair, of one whose queues
	// were drained, and of each pair of corruption templates queued the same
	// way, after the original has refilled its own queues, must leave the
	// original as a twin built and refilled the same way and never cloned.
	for _, p := range append(everyProtocol(), NewArrival()) {
		type build struct {
			label string
			pair  func() (Transmitter, Receiver)
		}
		builds := []build{
			{"queued pair", func() (Transmitter, Receiver) { return queuedPair(p) }},
			{"drained pair", func() (Transmitter, Receiver) {
				tx, rx := queuedPair(p)
				for _, ok := rx.NextPkt(); ok; _, ok = rx.NextPkt() {
				}
				rx.TakeDelivered()
				return tx, rx
			}},
		}
		if c, ok := p.(Corruptible); ok {
			space := c.Corruptions()
			for i := range space.Transmitters {
				for j := range space.Receivers {
					builds = append(builds, build{fmt.Sprintf("corruption templates t%d r%d", i, j), func() (Transmitter, Receiver) {
						space := c.Corruptions()
						tx, rx := space.Transmitters[i], space.Receivers[j]
						queueOn(p, tx, rx)
						return tx, rx
					}})
				}
			}
		}
		for _, b := range builds {
			tx, rx := b.pair()
			wantT, wantR := b.pair()
			tc, rc := tx.Clone(), rx.Clone()
			queueOn(p, tx, rx)
			queueOn(p, wantT, wantR)
			tc.Reset()
			rc.Reset()
			queueOn(p, tc, rc)
			queuedPairRounds(tc, rc, 8)
			samePair(t, fmt.Sprintf("%s %s: resetting and refilling a clone changed its original", p.Name(), b.label), tx, rx, wantT, wantR)
		}
	}
}

// samePair fails the test with msg unless tx and rx have wantT's and
// wantR's keys, and rx has wantR's acks queued. It drains both receivers.
func samePair(t *testing.T, msg string, tx Transmitter, rx Receiver, wantT Transmitter, wantR Receiver) {
	t.Helper()
	if got, want := StateKey(tx), StateKey(wantT); got != want {
		t.Fatalf("%s: transmitter %s, want %s", msg, got, want)
	}
	if got, want := StateKey(rx), StateKey(wantR); got != want {
		t.Fatalf("%s: receiver %s, want %s", msg, got, want)
	}
	for {
		got, gok := rx.NextPkt()
		want, wok := wantR.NextPkt()
		if got != want || gok != wok {
			t.Fatalf("%s: queued ack %v, want %v", msg, got, want)
		}
		if !gok {
			return
		}
	}
}

// queuedPair returns an endpoint pair with messages queued at the
// transmitter and distinct acks queued at the receiver (queueOn).
func queuedPair(p Protocol) (Transmitter, Receiver) {
	tx, rx := p.New(channel.NoGenie{}, channel.NoGenie{})
	queueOn(p, tx, rx)
	return tx, rx
}

// queueOn queues messages at tx and acks at rx: a second receiver of p
// confirms tx's packets, and rx gets the same packets, so its acks pile up.
func queueOn(p Protocol, tx Transmitter, rx Receiver) {
	_, confirm := p.New(channel.NoGenie{}, channel.NoGenie{})
	for i := 0; i < 6; i++ {
		tx.SendMsg(fmt.Sprintf("m%d", i))
	}
	for _, pk := range queuedPairRounds(tx, confirm, 3) {
		rx.DeliverPkt(pk)
	}
}

// queuedPairRounds runs rounds rounds in which tx sends one packet to
// confirm, every ack confirm has queued goes back to tx, and tx queues one
// more message. It returns the packets tx sent.
func queuedPairRounds(tx Transmitter, confirm Receiver, rounds int) []ioa.Packet {
	var sent []ioa.Packet
	for i := 0; i < rounds; i++ {
		if pk, ok := tx.NextPkt(); ok {
			sent = append(sent, pk)
			confirm.DeliverPkt(pk)
		}
		for a, ok := confirm.NextPkt(); ok; a, ok = confirm.NextPkt() {
			tx.DeliverPkt(a)
		}
		tx.SendMsg("x")
	}
	return sent
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

// TestContractBusyTransmits: a busy transmitter always has a packet to
// send, wherever a schedule of submits, sends, drops, holds, stale
// deliveries and takes has taken it, not only right after a submit
// (TestContractBusyDrivesOutput). The soak driver's stall path rests on it:
// netlink's runToIdle force-releases a held datagram only when a busy
// transmitter's step sends nothing, which a protocol that keeps this
// contract never does.
func TestContractBusyTransmits(t *testing.T) {
	for _, p := range append(everyProtocol(), NewArrival()) {
		CheckBusyTransmits(t, p)
	}
}

// CheckBusyTransmits holds p to the contract TestContractBusyTransmits
// names: over 40 seeded random schedules of 400 steps each (step), after
// every step at which the transmitter is Busy, a clone of it must return a
// packet from NextPkt. The clone keeps the probe from advancing the
// transmitter itself. The transport protocols' external test calls it
// too.
func CheckBusyTransmits(t *testing.T, p Protocol) {
	t.Helper()
	for seed := int64(1); seed <= 40; seed++ {
		w := newWire()
		tx, rx := w.pair(p)
		rng := rand.New(rand.NewSource(seed))
		var b []byte
		for i := 0; i < 400; i++ {
			b = step(tx, rx, w, rng, i, b[:0])
			if !tx.Busy() {
				continue
			}
			if _, ok := tx.Clone().NextPkt(); !ok {
				t.Fatalf("%s, seed %d, step %d: busy transmitter %s has no packet to send", p.Name(), seed, i, StateKey(tx))
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
		if StateKey(t1) == StateKey(t2) {
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
			kt, kr := StateKey(tx), StateKey(rx)
			if _, ok := tx.NextPkt(); ok {
				t.Fatalf("%s: idle transmitter produced output", p.Name())
			}
			if _, ok := rx.NextPkt(); ok {
				t.Fatalf("%s: drained receiver produced output", p.Name())
			}
			if StateKey(tx) != kt || StateKey(rx) != kr {
				t.Fatalf("%s: unproductive NextPkt mutated state", p.Name())
			}
		}
	}
}

// TestContractResetIsNew: Reset returns an endpoint to the state New gives
// it, wherever the endpoint came from and whatever it went through.
// sim.Runner.Reset reuses a protocol's endpoints across runs on this
// contract.
func TestContractResetIsNew(t *testing.T) {
	for _, p := range append(everyProtocol(), NewArrival()) {
		CheckResetIsNew(t, p)
	}
}

// CheckResetIsNew holds p's endpoints to the Reset contract: pairs from
// New, clones of a driven pair, and clones of every corruption template
// are driven through seeded random schedules, reset, and compared with a
// fresh pair from New. The reset pair's keys must equal the fresh pair's,
// and so must the packets, keys and delivered payloads of a further
// schedule. The transport protocols' external test calls it too.
func CheckResetIsNew(t *testing.T, p Protocol) {
	t.Helper()
	for seed := int64(1); seed <= 6; seed++ {
		w := newWire()
		tx, rx := w.pair(p)
		resetMatchesNew(t, p.Name()+" from New", p, tx, rx, w, seed)

		// A clone of a driven pair, on copies of its channels, as Fork
		// makes it.
		w = newWire()
		tx, rx = w.pair(p)
		schedule(tx, rx, w, rand.New(rand.NewSource(-seed)), 40)
		fw := wire{data: w.data.Clone(), ack: w.ack.Clone()}
		tc, rc := tx.Clone(), rx.Clone()
		BindGenies(tc, rc, fw.data, fw.ack)
		resetMatchesNew(t, p.Name()+" from Clone", p, tc, rc, fw, seed)

		c, ok := p.(Corruptible)
		if !ok {
			continue
		}
		space := c.Corruptions()
		for i, tt := range space.Transmitters {
			for j, rt := range space.Receivers {
				w := newWire()
				tc, rc := tt.Clone(), rt.Clone()
				BindGenies(tc, rc, w.data, w.ack)
				resetMatchesNew(t, fmt.Sprintf("%s from corruption template t%d r%d", p.Name(), i, j), p, tc, rc, w, seed)
			}
		}
	}
}

// wire is the pair of channels a test pair's genies read, standing in for
// a runner's: schedules hold delayed copies on them.
type wire struct{ data, ack *channel.NonFIFO }

func newWire() wire {
	return wire{data: channel.NewNonFIFO(ioa.TtoR), ack: channel.NewNonFIFO(ioa.RtoT)}
}

// pair returns a fresh pair of p whose genies read w.
func (w wire) pair(p Protocol) (Transmitter, Receiver) {
	return p.New(channel.ChannelGenie{Ch: w.data}, channel.ChannelGenie{Ch: w.ack})
}

// resetMatchesNew drives tx and rx, whose genies read w, through a seeded
// random schedule, then resets w's channels and the pair, in the order
// sim.Runner.Reset does, and compares the pair with a fresh one of p.
func resetMatchesNew(t *testing.T, label string, p Protocol, tx Transmitter, rx Receiver, w wire, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schedule(tx, rx, w, rng, 60)
	w.data.Reset(ioa.TtoR)
	w.ack.Reset(ioa.RtoT)
	tx.Reset()
	rx.Reset()
	fw := newWire()
	ft, fr := fw.pair(p)
	if got, want := StateKey(tx), StateKey(ft); got != want {
		t.Fatalf("%s, seed %d: reset transmitter %s, New gives %s", label, seed, got, want)
	}
	if got, want := StateKey(rx), StateKey(fr); got != want {
		t.Fatalf("%s, seed %d: reset receiver %s, New gives %s", label, seed, got, want)
	}
	s := rng.Int63()
	got := schedule(tx, rx, w, rand.New(rand.NewSource(s)), 80)
	want := schedule(ft, fr, fw, rand.New(rand.NewSource(s)), 80)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s, seed %d: after Reset, step %d of a schedule shows\n%s\nwhere a fresh pair shows\n%s", label, seed, i, got[i], want[i])
		}
	}
}

// schedule drives tx and rx through n random steps over w (step) and
// returns what each step showed: the packets sent and payloads taken, and
// both state keys after.
func schedule(tx Transmitter, rx Receiver, w wire, rng *rand.Rand, n int) []string {
	steps := make([]string, n)
	var b []byte
	for i := range steps {
		b = step(tx, rx, w, rng, i, b[:0])
		b = tx.AppendStateKey(b)
		b = rx.AppendStateKey(append(b, ' '))
		steps[i] = string(b)
	}
	return steps
}

// step takes schedule's step i — a submit, a send whose copy is delivered,
// held on w or dropped, a delivery of a held copy, or a take of the
// delivered payloads — and appends what it showed to b.
func step(tx Transmitter, rx Receiver, w wire, rng *rand.Rand, i int, b []byte) []byte {
	fate := func(p ioa.Packet, ch *channel.NonFIFO, deliver func(ioa.Packet)) {
		switch rng.Intn(3) {
		case 0:
			deliver(p)
		case 1:
			ch.Send(p)
		}
	}
	stale := func(ch *channel.NonFIFO, deliver func(ioa.Packet)) {
		if n := ch.DistinctPackets(); n > 0 {
			p := ch.PacketAt(rng.Intn(n))
			_ = ch.Deliver(p)
			deliver(p)
		}
	}
	switch rng.Intn(6) {
	case 0:
		tx.SendMsg(Payload(i))
	case 1:
		p, ok := tx.NextPkt()
		b = fmt.Appendf(b, "send %v %t; ", p, ok)
		if ok {
			fate(p, w.data, rx.DeliverPkt)
		}
	case 2:
		p, ok := rx.NextPkt()
		b = fmt.Appendf(b, "ack %v %t; ", p, ok)
		if ok {
			fate(p, w.ack, tx.DeliverPkt)
		}
	case 3:
		stale(w.data, rx.DeliverPkt)
	case 4:
		stale(w.ack, tx.DeliverPkt)
	case 5:
		b = fmt.Appendf(b, "delivered %q; ", rx.TakeDelivered())
	}
	return b
}
