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

// jointKeys drives n messages to idle over reliable channels and returns
// the joint control key and the joint StateKey after each confirmed
// message.
func jointKeys(t *testing.T, p protocol.Protocol, n int) (control, state []string) {
	t.Helper()
	r := sim.NewRunner(sim.Config{Protocol: p})
	for i := 0; i < n; i++ {
		if err := r.RunMessage("m"); err != nil {
			t.Fatalf("%s: message %d: %v", p.Name(), i, err)
		}
		control = append(control, protocol.ControlKeyOf(r.T)+"|"+protocol.ControlKeyOf(r.R))
		state = append(state, r.T.StateKey()+"|"+r.R.StateKey())
	}
	return control, state
}

// TestControlKeyWrapInvariance is the finiteness property the audit relies
// on: after a full trip around the sequence space the endpoints' control
// keys revisit earlier values (period S), while their StateKeys grow
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
		// The quotient is doing real work: the StateKeys never repeat.
		seen := make(map[string]bool)
		for i, k := range state {
			if seen[k] {
				t.Fatalf("%s: StateKey repeated at message %d; the ControlKey quotient would be vacuous", p.Name(), i)
			}
			seen[k] = true
		}
	}
}

// driveRecordedKeys replays one deterministic lossy schedule against a fresh
// endpoint pair and records the joint ControlKey and StateKey after every
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
			protocol.ControlKeyOf(r.T)+"|"+protocol.ControlKeyOf(r.R)+"|"+r.T.StateKey()+"|"+r.R.StateKey())
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
// produce byte-identical ControlKey/StateKey sequences for every registered
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
