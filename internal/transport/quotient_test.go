package transport_test

// External test package: these tests drive the endpoints through sim.Runner
// and replay, which import transport; an internal test package would cycle.

import (
	"strconv"
	"testing"

	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestDerivedBounds(t *testing.T) {
	cases := []struct {
		p       protocol.Protocol
		bounded bool
		headers int
	}{
		{transport.New(4, 2), true, 8},
		{transport.NewGoBackN(6, 3), true, 12},
		{transport.New(0, 2), false, 0},
		{transport.NewGoBackN(0, 1), false, 0},
	}
	for _, tc := range cases {
		bp, ok := tc.p.(protocol.Bounded)
		if !ok {
			t.Fatalf("%s declares no Bounds", tc.p.Name())
		}
		b := bp.Bounds()
		if b.StateBounded != tc.bounded || b.Headers != tc.headers {
			t.Errorf("%s: Bounds() = %+v, want StateBounded=%v Headers=%d",
				tc.p.Name(), b, tc.bounded, tc.headers)
		}
		if k, ok := tc.p.HeaderBound(); ok != tc.bounded || k != tc.headers {
			t.Errorf("%s: HeaderBound() = (%d,%v), want the declared alphabet (%d,%v)",
				tc.p.Name(), k, ok, tc.headers, tc.bounded)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, name := range []string{
		"swindow-s4-w2", "swindow-s8-w4", "swindow-unbounded-w2",
		"gbn-s4-w2", "gbn-s6-w3", "gbn-unbounded-w1",
	} {
		p, ok := transport.Parse(name)
		if !ok {
			t.Errorf("Parse(%q) not recognised", name)
			continue
		}
		if p.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, p.Name())
		}
		switch p.(type) {
		case transport.SlidingWindow, transport.GoBackN:
		default:
			t.Errorf("Parse(%q) returned %T, want a transport descriptor", name, p)
		}
	}
	for _, name := range []string{
		"altbit", "swindow", "swindow-s0-w2", "swindow-sx-w2", "swindow-s4",
		"swindow-s4-w0", "gbn-unbounded", "gbn-s4-wx", "swindow-unbounded-w-1",
		"swindow-s-1-w1",
	} {
		if p, ok := transport.Parse(name); ok {
			t.Errorf("Parse(%q) = %v, want rejection", name, p.Name())
		}
	}
	for _, name := range transport.Names() {
		if _, ok := transport.Parse(name); !ok {
			t.Errorf("registry name %q does not Parse", name)
		}
	}
}

// controlKey renders an endpoint's control key as a string.
func controlKey(e interface{ AppendStateKey([]byte) []byte }) string {
	return string(protocol.AppendControlKey(nil, e))
}

// jointKeys drives n messages to idle over reliable channels and returns
// the joint control key and the joint state key after each confirmed
// message.
func jointKeys(t *testing.T, p protocol.Protocol, n int) (control, state []string) {
	t.Helper()
	r := sim.NewRunner(sim.Config{Protocol: p})
	for i := 0; i < n; i++ {
		if err := r.RunMessage("m"); err != nil {
			t.Fatalf("%s: message %d: %v", p.Name(), i, err)
		}
		control = append(control, controlKey(r.T)+"|"+controlKey(r.R))
		state = append(state, protocol.StateKey(r.T)+"|"+protocol.StateKey(r.R))
	}
	return control, state
}

// TestControlKeyWrapInvariance is the finiteness property the audit relies
// on: after a full trip around the sequence space the endpoints' control
// keys revisit earlier values (period S), while their state keys grow
// forever with the absolute counters.
func TestControlKeyWrapInvariance(t *testing.T) {
	const s = 4
	for _, p := range []protocol.Protocol{transport.New(s, 2), transport.NewGoBackN(s, 2)} {
		control, state := jointKeys(t, p, 3*s)
		for i := s; i < len(control); i++ {
			if control[i] != control[i-s] {
				t.Errorf("%s: control key after message %d differs from message %d:\n %s\n %s",
					p.Name(), i, i-s, control[i], control[i-s])
			}
		}
		// The quotient is doing real work: the state keys never repeat.
		seen := make(map[string]bool)
		for i, k := range state {
			if seen[k] {
				t.Fatalf("%s: state key repeated at message %d; the control-key quotient would be vacuous", p.Name(), i)
			}
			seen[k] = true
		}
	}
}

// driveRecordedKeys replays one deterministic lossy schedule against a fresh
// endpoint pair and records the joint control and state keys after every
// driver operation.
func driveRecordedKeys(t *testing.T, p protocol.Protocol) []string {
	t.Helper()
	r := sim.NewRunner(sim.Config{
		Protocol:   p,
		DataPolicy: channel.DropEvery(3),
		AckPolicy:  channel.DropEvery(4),
	})
	var keys []string
	snap := func() {
		keys = append(keys,
			controlKey(r.T)+"|"+controlKey(r.R)+"|"+protocol.StateKey(r.T)+"|"+protocol.StateKey(r.R))
	}
	for i := 0; i < 6; i++ {
		r.SubmitMsg("m" + strconv.Itoa(i))
		snap()
		for steps := 0; r.T.Busy() && steps < 200; steps++ {
			r.StepTransmit()
			r.DrainAcks()
			snap()
		}
	}
	return keys
}

// TestControlKeyReplayStability is the keys' determinism regression
// (satellite of the statekey lint): two replays of the same schedule must
// produce byte-identical control and state key sequences for every registered
// transport protocol. Clock reads, map iteration or randomness in a key
// implementation would diverge here.
func TestControlKeyReplayStability(t *testing.T) {
	reg := transport.Registry()
	for _, name := range transport.Names() {
		p := reg[name]
		first := driveRecordedKeys(t, p)
		second := driveRecordedKeys(t, p)
		if len(first) != len(second) {
			t.Fatalf("%s: replays recorded %d vs %d key snapshots", name, len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: key snapshot %d unstable across replays:\n %s\n %s", name, i, first[i], second[i])
			}
		}
	}
}

// lossyExchange drives a fresh endpoint pair of p through a fixed lossy
// schedule: nine messages, then steps transmit-deliver-drain rounds in which
// every third data copy is lost, every fourth round leaves its acks pending
// and acks drained in every fifth round are lost.
func lossyExchange(p protocol.Protocol, steps int) (protocol.Transmitter, protocol.Receiver) {
	tx, rx := p.New(nil, nil)
	for i := 0; i < 9; i++ {
		tx.SendMsg("m" + strconv.Itoa(i))
	}
	for step := 0; step < steps; step++ {
		if pkt, ok := tx.NextPkt(); ok && step%3 != 1 {
			rx.DeliverPkt(pkt)
		}
		if step%4 == 3 {
			continue
		}
		for ack, ok := rx.NextPkt(); ok; ack, ok = rx.NextPkt() {
			if step%5 != 2 {
				tx.DeliverPkt(ack)
			}
		}
	}
	return tx, rx
}

// TestKeyBytesPinned pins the exact state and control key bytes of both
// transport families, at S = 4 and unbounded, after the fixed lossy
// exchange: mid-window, with acked and unacked segments in flight, a
// buffered out-of-order segment or pending acks, and sequence numbers past
// one wrap. The prover, the audit and the fuzzer identify states by these
// bytes, so a rendering change would silently change every verdict's space.
func TestKeyBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		p     protocol.Protocol
		steps int
		// want holds the transmitter and receiver state keys, then their
		// control keys.
		want [4]string
	}{
		{transport.New(4, 2), 11, [4]string{
			"swS{s=4 w=2 base=5 next=7 rr=1 segs=5:m5:false;6:m6:true; q=m7|m8}",
			"swR{s=4 w=2 next=5 buf=6:m6; pendAcks=0 pendDeliv=5}",
			"swS/{s=4 w=2 base%=1 rr=1 segs=1:m5:false;2:m6:true; q=m7|m8}",
			"swR/{s=4 w=2 next%=1 buf=1:m6; acks= deliv=m0|m1|m2|m3|m4}",
		}},
		{transport.New(4, 2), 12, [4]string{
			"swS{s=4 w=2 base=5 next=7 rr=1 segs=5:m5:false;6:m6:true; q=m7|m8}",
			"swR{s=4 w=2 next=7 buf= pendAcks=1 pendDeliv=7}",
			"swS/{s=4 w=2 base%=1 rr=1 segs=1:m5:false;2:m6:true; q=m7|m8}",
			"swR/{s=4 w=2 next%=3 buf= acks=t1; deliv=m0|m1|m2|m3|m4|m5|m6}",
		}},
		{transport.New(0, 2), 11, [4]string{
			"swS{s=0 w=2 base=5 next=7 rr=1 segs=5:m5:false;6:m6:true; q=m7|m8}",
			"swR{s=0 w=2 next=5 buf=6:m6; pendAcks=0 pendDeliv=5}",
			"swS{s=0 w=2 base=5 next=7 rr=1 segs=5:m5:false;6:m6:true; q=m7|m8}",
			"swR{s=0 w=2 next=5 buf=6:m6; pendAcks=0 pendDeliv=5}",
		}},
		{transport.New(0, 2), 12, [4]string{
			"swS{s=0 w=2 base=5 next=7 rr=1 segs=5:m5:false;6:m6:true; q=m7|m8}",
			"swR{s=0 w=2 next=7 buf= pendAcks=1 pendDeliv=7}",
			"swS{s=0 w=2 base=5 next=7 rr=1 segs=5:m5:false;6:m6:true; q=m7|m8}",
			"swR{s=0 w=2 next=7 buf= pendAcks=1 pendDeliv=7}",
		}},
		{transport.NewGoBackN(4, 2), 11, [4]string{
			"gbnS{s=4 w=2 base=5 next=7 rr=1 segs=5:m5;6:m6; q=m7|m8}",
			"gbnR{s=4 next=5 pendAcks=0 pendDeliv=5}",
			"gbnS/{s=4 w=2 base%=1 rr=1 segs=1:m5;2:m6; q=m7|m8}",
			"gbnR/{s=4 next%=1 started=true acks= deliv=m0|m1|m2|m3|m4}",
		}},
		{transport.NewGoBackN(4, 2), 12, [4]string{
			"gbnS{s=4 w=2 base=5 next=7 rr=0 segs=5:m5;6:m6; q=m7|m8}",
			"gbnR{s=4 next=5 pendAcks=1 pendDeliv=5}",
			"gbnS/{s=4 w=2 base%=1 rr=0 segs=1:m5;2:m6; q=m7|m8}",
			"gbnR/{s=4 next%=1 started=true acks=t0; deliv=m0|m1|m2|m3|m4}",
		}},
		{transport.NewGoBackN(0, 2), 11, [4]string{
			"gbnS{s=0 w=2 base=5 next=7 rr=1 segs=5:m5;6:m6; q=m7|m8}",
			"gbnR{s=0 next=5 pendAcks=0 pendDeliv=5}",
			"gbnS{s=0 w=2 base=5 next=7 rr=1 segs=5:m5;6:m6; q=m7|m8}",
			"gbnR{s=0 next=5 pendAcks=0 pendDeliv=5}",
		}},
		{transport.NewGoBackN(0, 2), 12, [4]string{
			"gbnS{s=0 w=2 base=5 next=7 rr=0 segs=5:m5;6:m6; q=m7|m8}",
			"gbnR{s=0 next=5 pendAcks=1 pendDeliv=5}",
			"gbnS{s=0 w=2 base=5 next=7 rr=0 segs=5:m5;6:m6; q=m7|m8}",
			"gbnR{s=0 next=5 pendAcks=1 pendDeliv=5}",
		}},
	} {
		tx, rx := lossyExchange(tc.p, tc.steps)
		got := [4]string{
			string(tx.AppendStateKey(nil)),
			string(rx.AppendStateKey(nil)),
			string(tx.(protocol.ControlKeyer).AppendControlKey(nil)),
			string(rx.(protocol.ControlKeyer).AppendControlKey(nil)),
		}
		for i, what := range []string{"transmitter state", "receiver state", "transmitter control", "receiver control"} {
			if got[i] != tc.want[i] {
				t.Errorf("%s after %d steps: %s key\n got  %s\n want %s", tc.p.Name(), tc.steps, what, got[i], tc.want[i])
			}
		}
	}
}
