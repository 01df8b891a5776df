package adversary

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// prepare runs n messages with the given data policy and trace recording.
func prepare(t *testing.T, p protocol.Protocol, n int, data channel.Policy) *sim.Runner {
	t.Helper()
	r := sim.NewRunner(sim.Config{Protocol: p, DataPolicy: data, RecordTrace: true})
	for i := 0; i < n; i++ {
		if err := r.RunMessage("m" + string(rune('0'+i))); err != nil {
			t.Fatalf("setup message %d: %v", i, err)
		}
	}
	return r
}

// --- ReplaySearch ---

func TestReplayBreaksAltbit(t *testing.T) {
	// Strand one copy of d0, deliver two messages, replay: the classic
	// non-FIFO attack, found automatically.
	r := prepare(t, protocol.NewAltBit(), 2, channel.DelayFirst(1))
	rep, err := ReplaySearch(r, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cert == nil {
		t.Fatalf("replay search failed to break altbit (%d nodes)", rep.Nodes)
	}
	if rep.Cert.Violation.Property != "DL1" {
		t.Fatalf("expected DL1 violation, got %v", rep.Cert.Violation)
	}
	if err := rep.Cert.Recheck(); err != nil {
		t.Fatalf("certificate recheck failed: %v", err)
	}
	if len(rep.Cert.Replayed) == 0 || rep.Cert.Replayed[0].Header != "d0" {
		t.Fatalf("expected a d0 replay, got %v", rep.Cert.Replayed)
	}
	if len(rep.Cert.ExtraDeliveries) == 0 {
		t.Fatal("certificate should list the spurious delivery")
	}
}

func TestReplayCertificateHumanReadable(t *testing.T) {
	r := prepare(t, protocol.NewAltBit(), 2, channel.DelayFirst(1))
	rep, err := ReplaySearch(r, ReplayConfig{})
	if err != nil || rep.Cert == nil {
		t.Fatalf("no certificate: %v", err)
	}
	s := rep.Cert.String()
	for _, want := range []string{"VIOLATION CERTIFICATE", "DL1", "replayed stale copies", "receive_msg"} {
		if !strings.Contains(s, want) {
			t.Fatalf("certificate rendering missing %q:\n%s", want, s)
		}
	}
}

func TestReplayCannotBreakSeqnum(t *testing.T) {
	// Strand plenty of old copies; the naive protocol ignores all of them.
	r := prepare(t, protocol.NewSeqNum(), 3, channel.DelayFirst(2))
	rep, err := ReplaySearch(r, ReplayConfig{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cert != nil {
		t.Fatalf("seqnum must resist replay; got certificate:\n%s", rep.Cert)
	}
	if rep.Nodes == 0 {
		t.Fatal("search should have explored at least one delivery")
	}
}

func TestReplayCannotBreakCountingProtocols(t *testing.T) {
	for _, p := range []protocol.Protocol{protocol.NewCntLinear(), protocol.NewCntExp()} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			r := prepare(t, p, 3, channel.DelayFirst(3))
			rep, err := ReplaySearch(r, ReplayConfig{MaxDepth: 10})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cert != nil {
				t.Fatalf("%s must resist replay; certificate:\n%s", p.Name(), rep.Cert)
			}
		})
	}
}

func TestReplayBreaksCheat(t *testing.T) {
	// cheat(d) under-counts by d: with S ≥ d stranded same-bit copies the
	// adversary delivers S−d+1 of them and forces a spurious acceptance.
	// Two messages leave the receiver expecting bit 0 again, the bit of the
	// 4 stranded copies.
	for _, d := range []int{1, 2} {
		r := prepare(t, protocol.NewCheat(d), 2, channel.DelayFirst(4))
		rep, err := ReplaySearch(r, ReplayConfig{MaxDepth: 12})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cert == nil {
			t.Fatalf("cheat(%d) should be breakable (%d nodes)", d, rep.Nodes)
		}
		if rep.Cert.Violation.Property != "DL1" {
			t.Fatalf("cheat(%d): expected DL1, got %v", d, rep.Cert.Violation)
		}
		if err := rep.Cert.Recheck(); err != nil {
			t.Fatalf("cheat(%d): recheck: %v", d, err)
		}
	}
}

func TestReplayRequiresTrace(t *testing.T) {
	r := sim.NewRunner(sim.Config{Protocol: protocol.NewAltBit()})
	if _, err := ReplaySearch(r, ReplayConfig{}); err != ErrNoTrace {
		t.Fatalf("expected ErrNoTrace, got %v", err)
	}
}

func TestReplayDoesNotMutateCaller(t *testing.T) {
	r := prepare(t, protocol.NewAltBit(), 2, channel.DelayFirst(1))
	before := r.ChData.Key()
	trBefore := len(r.Recorder().Trace())
	if _, err := ReplaySearch(r, ReplayConfig{}); err != nil {
		t.Fatal(err)
	}
	if r.ChData.Key() != before || len(r.Recorder().Trace()) != trBefore {
		t.Fatal("replay search mutated the caller's runner")
	}
}

func TestReplayEmptyChannelFindsNothing(t *testing.T) {
	r := prepare(t, protocol.NewAltBit(), 2, channel.Reliable())
	rep, err := ReplaySearch(r, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cert != nil || rep.Nodes != 0 {
		t.Fatalf("nothing to replay: %+v", rep)
	}
}

func TestReplayNodeBudgetTruncates(t *testing.T) {
	r := prepare(t, protocol.NewCntLinear(), 3, channel.DelayFirst(6))
	rep, err := ReplaySearch(r, ReplayConfig{MaxDepth: 10, MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatalf("expected truncation at 5 nodes, got %+v", rep)
	}
	if rep.Nodes > 5 {
		t.Fatalf("node budget exceeded: %d", rep.Nodes)
	}
}

// --- Pump ---

func TestPumpClosesCorrectProtocols(t *testing.T) {
	for _, p := range []protocol.Protocol{protocol.NewAltBit(), protocol.NewSeqNum(), protocol.NewCntLinear()} {
		r := sim.NewRunner(sim.Config{Protocol: p})
		r.SubmitMsg("m")
		rep, err := Pump(r, 1<<16)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !rep.Closed || rep.Pumped {
			t.Fatalf("%s: expected Closed, got %+v", p.Name(), rep)
		}
		if rep.Cost < 1 {
			t.Fatalf("%s: closing cost %d", p.Name(), rep.Cost)
		}
	}
}

func TestPumpIdleIsClosed(t *testing.T) {
	r := sim.NewRunner(sim.Config{Protocol: protocol.NewAltBit()})
	rep, err := Pump(r, 100)
	if err != nil || !rep.Closed || rep.Cost != 0 {
		t.Fatalf("idle pump = %+v, %v", rep, err)
	}
}

func TestPumpDetectsLivelock(t *testing.T) {
	r := sim.NewRunner(sim.Config{Protocol: protocol.NewLivelock()})
	r.SubmitMsg("m")
	rep, err := Pump(r, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pumped || rep.Closed {
		t.Fatalf("expected Pumped, got %+v", rep)
	}
	if rep.RepeatedState == "" || rep.Steps == 0 {
		t.Fatalf("pump report incomplete: %+v", rep)
	}
}

func TestPumpDoesNotMutateCaller(t *testing.T) {
	r := sim.NewRunner(sim.Config{Protocol: protocol.NewAltBit()})
	r.SubmitMsg("m")
	key := protocol.StateKey(r.T)
	if _, err := Pump(r, 1000); err != nil {
		t.Fatal(err)
	}
	if protocol.StateKey(r.T) != key || !r.T.Busy() {
		t.Fatal("pump mutated the caller's runner")
	}
}

// --- HeaderBudget ---

func TestHeaderBudgetBreaksAltbit(t *testing.T) {
	rep, err := HeaderBudget(protocol.NewAltBit(), 2, 3, ReplayConfig{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Bounded {
		t.Fatal("altbit is header-bounded")
	}
	if rep.Replay.Cert == nil {
		t.Fatalf("header-budget attack should break altbit: %+v", rep)
	}
	if err := rep.Replay.Cert.Recheck(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rep.HeadersAccumulated)
	if len(rep.HeadersAccumulated) < 2 {
		t.Fatalf("should accumulate both data headers, got %v", rep.HeadersAccumulated)
	}
}

func TestHeaderBudgetBreaksCheat(t *testing.T) {
	rep, err := HeaderBudget(protocol.NewCheat(1), 3, 3, ReplayConfig{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replay.Cert == nil {
		t.Fatal("header-budget attack should break cheat(1)")
	}
}

func TestHeaderBudgetCountingResists(t *testing.T) {
	for _, p := range []protocol.Protocol{protocol.NewCntLinear(), protocol.NewCntExp()} {
		rep, err := HeaderBudget(p, 3, 3, ReplayConfig{MaxDepth: 10})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if rep.Replay.Cert != nil {
			t.Fatalf("%s should resist the header-budget attack:\n%s", p.Name(), rep.Replay.Cert)
		}
		if rep.Replay.Nodes == 0 {
			t.Fatalf("%s: search explored nothing", p.Name())
		}
	}
}

func TestHeaderBudgetInapplicableToUnboundedAlphabet(t *testing.T) {
	rep, err := HeaderBudget(protocol.NewSeqNum(), 2, 3, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bounded {
		t.Fatal("seqnum has an unbounded alphabet; construction inapplicable")
	}
}

func TestRecheckDetectsTamperedCertificate(t *testing.T) {
	r := prepare(t, protocol.NewAltBit(), 2, channel.DelayFirst(1))
	rep, err := ReplaySearch(r, ReplayConfig{})
	if err != nil || rep.Cert == nil {
		t.Fatalf("no certificate: %v", err)
	}
	// Tamper 1: swap the claimed property.
	bad := *rep.Cert
	v := *bad.Violation
	v.Property = "DL2"
	bad.Violation = &v
	if bad.Recheck() == nil {
		t.Fatal("property mismatch not detected")
	}
	// Tamper 2: replace the trace with a valid one.
	good := prepare(t, protocol.NewSeqNum(), 1, channel.Reliable())
	bad2 := *rep.Cert
	bad2.Trace = good.Recorder().Trace()
	if bad2.Recheck() == nil {
		t.Fatal("valid trace accepted as violation certificate")
	}
}

func TestReplayBreaksTransportWrap(t *testing.T) {
	// The replay adversary also works one layer up: a sliding window
	// transport with sequence space 2 falls to a stale-segment replay.
	r := prepare(t, transport.New(2, 1), 2, channel.DelayFirst(1))
	rep, err := ReplaySearch(r, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cert == nil {
		t.Fatalf("swindow-s2 should fall to replay (%d nodes)", rep.Nodes)
	}
	if err := rep.Cert.Recheck(); err != nil {
		t.Fatal(err)
	}
	// The unbounded variant resists the same schedule.
	r2 := prepare(t, transport.New(0, 1), 2, channel.DelayFirst(1))
	rep2, err := ReplaySearch(r2, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Cert != nil {
		t.Fatalf("unbounded swindow should resist:\n%s", rep2.Cert)
	}
}
