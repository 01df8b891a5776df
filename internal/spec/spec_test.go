package spec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
)

func msg(id int, payload string) ioa.Message { return ioa.Message{ID: id, Payload: payload} }

// ConformsQuiescent additionally requires the automaton to be quiescent at
// the end of the trace (terminal liveness: no outputs owed).
func ConformsQuiescent(tr ioa.Trace, a Automaton) error {
	if err := Conforms(tr, a); err != nil {
		return err
	}
	if !a.Quiescent() {
		return &ioa.Violation{
			Property: a.Name(),
			Index:    -1,
			Detail:   "service still owes output actions at end of trace",
		}
	}
	return nil
}

// CheckTrace verifies a complete execution against the composed
// specification — DL quiescent-conformance plus PL conformance on both
// channels. It is the specification-automaton formulation of
// ioa.CheckValid, the reference the tests hold that checker to.
func CheckTrace(tr ioa.Trace) error {
	if err := Conforms(tr, NewPLSpec(ioa.TtoR)); err != nil {
		return err
	}
	if err := Conforms(tr, NewPLSpec(ioa.RtoT)); err != nil {
		return err
	}
	return ConformsQuiescent(tr, NewDLSpec())
}

func TestDLSpecAcceptsValidSequences(t *testing.T) {
	s := NewDLSpec()
	tr := ioa.Trace{
		{Kind: ioa.SendMsg, Msg: msg(0, "a")},
		{Kind: ioa.SendMsg, Msg: msg(1, "b")},
		{Kind: ioa.ReceiveMsg, Msg: msg(0, "a")},
		{Kind: ioa.ReceiveMsg, Msg: msg(1, "b")},
	}
	if err := ConformsQuiescent(tr, s); err != nil {
		t.Fatalf("valid sequence refused: %v", err)
	}
}

func TestDLSpecRefusesSpuriousDelivery(t *testing.T) {
	tr := ioa.Trace{{Kind: ioa.ReceiveMsg, Msg: msg(0, "a")}}
	err := Conforms(tr, NewDLSpec())
	if err == nil {
		t.Fatal("spurious delivery accepted")
	}
	v, ok := ioa.AsViolation(err)
	if !ok || v.Index != 0 || v.Property != "DL-spec" {
		t.Fatalf("violation = %+v", v)
	}
}

func TestDLSpecRefusesDuplicate(t *testing.T) {
	tr := ioa.Trace{
		{Kind: ioa.SendMsg, Msg: msg(0, "a")},
		{Kind: ioa.ReceiveMsg, Msg: msg(0, "a")},
		{Kind: ioa.ReceiveMsg, Msg: msg(1, "a")},
	}
	if err := Conforms(tr, NewDLSpec()); err == nil {
		t.Fatal("duplicate delivery accepted")
	}
}

func TestDLSpecRefusesReorder(t *testing.T) {
	tr := ioa.Trace{
		{Kind: ioa.SendMsg, Msg: msg(0, "a")},
		{Kind: ioa.SendMsg, Msg: msg(1, "b")},
		{Kind: ioa.ReceiveMsg, Msg: msg(0, "b")},
	}
	if err := Conforms(tr, NewDLSpec()); err == nil {
		t.Fatal("reordered delivery accepted")
	}
}

func TestDLSpecQuiescence(t *testing.T) {
	s := NewDLSpec()
	tr := ioa.Trace{{Kind: ioa.SendMsg, Msg: msg(0, "a")}}
	if err := Conforms(tr, s); err != nil {
		t.Fatal(err)
	}
	if s.Quiescent() || len(s.queue) != 1 {
		t.Fatal("spec should owe one delivery")
	}
	if err := ConformsQuiescent(tr, NewDLSpec()); err == nil {
		t.Fatal("non-quiescent trace accepted by ConformsQuiescent")
	}
}

func TestPLSpec(t *testing.T) {
	s := NewPLSpec(ioa.TtoR)
	p := ioa.Packet{Header: "d0"}
	tr := ioa.Trace{
		{Kind: ioa.SendPkt, Dir: ioa.TtoR, Pkt: p},
		{Kind: ioa.SendPkt, Dir: ioa.TtoR, Pkt: p},
		{Kind: ioa.ReceivePkt, Dir: ioa.TtoR, Pkt: p},
	}
	if err := Conforms(tr, s); err != nil {
		t.Fatal(err)
	}
	if n := s.transit.Len(); n != 1 {
		t.Fatalf("in transit = %d", n)
	}
	if !s.Quiescent() {
		t.Fatal("the physical layer is always quiescent (it may drop)")
	}
	// One more receive is fine (the remaining copy); a third is refused.
	if err := s.Apply(ioa.Event{Kind: ioa.ReceivePkt, Dir: ioa.TtoR, Pkt: p}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(ioa.Event{Kind: ioa.ReceivePkt, Dir: ioa.TtoR, Pkt: p}); err == nil {
		t.Fatal("over-delivery accepted")
	}
}

func TestPLSpecIgnoresOtherDirection(t *testing.T) {
	s := NewPLSpec(ioa.TtoR)
	e := ioa.Event{Kind: ioa.ReceivePkt, Dir: ioa.RtoT, Pkt: ioa.Packet{Header: "a0"}}
	if s.Relevant(e) {
		t.Fatal("r→t event relevant to t→r spec")
	}
}

func TestRelevanceFiltering(t *testing.T) {
	dl := NewDLSpec()
	if dl.Relevant(ioa.Event{Kind: ioa.SendPkt, Dir: ioa.TtoR}) {
		t.Fatal("packet event relevant to DL spec")
	}
	pl := NewPLSpec(ioa.TtoR)
	if pl.Relevant(ioa.Event{Kind: ioa.SendMsg}) {
		t.Fatal("message event relevant to PL spec")
	}
}

// --- cross-validation against the hand-coded checkers ---

// protocolTrace produces a recorded run with distinct payloads. Both
// checker formulations must agree on such traces (the spec automata
// compare payload content; the ioa checkers compare bookkeeping IDs; with
// distinct payloads the two observables coincide).
func protocolTrace(t *testing.T, p protocol.Protocol, n int, data channel.Policy) ioa.Trace {
	t.Helper()
	r := sim.NewRunner(sim.Config{Protocol: p, DataPolicy: data, RecordTrace: true})
	res := r.Run(n)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Trace
}

func TestCrossValidationOnValidTraces(t *testing.T) {
	policies := []func() channel.Policy{
		channel.Reliable,
		func() channel.Policy { return channel.DropEvery(3) },
		func() channel.Policy { return channel.DelayFirst(4) },
		func() channel.Policy { return channel.Probabilistic(0.3, rand.New(rand.NewSource(17))) },
	}
	reg := protocol.Registry()
	for _, name := range protocol.Names() {
		p := reg[name]
		for _, mk := range policies {
			tr := protocolTrace(t, p, 5, mk())
			iov := ioa.CheckValid(tr)
			spv := CheckTrace(tr)
			if (iov == nil) != (spv == nil) {
				t.Fatalf("%s: checkers disagree: ioa=%v spec=%v", p.Name(), iov, spv)
			}
			if iov != nil {
				t.Fatalf("%s: valid run rejected: %v", p.Name(), iov)
			}
		}
	}
}

func TestCrossValidationOnInvalidTrace(t *testing.T) {
	// The altbit replay execution: both formulations must reject it.
	r := sim.NewRunner(sim.Config{
		Protocol:    protocol.NewAltBit(),
		DataPolicy:  channel.DelayFirst(1),
		RecordTrace: true,
	})
	if err := r.RunMessage("m0"); err != nil {
		t.Fatal(err)
	}
	if err := r.RunMessage("m1"); err != nil {
		t.Fatal(err)
	}
	if err := r.DeliverStale(ioa.TtoR, ioa.Packet{Header: "d0", Payload: "m0"}); err != nil {
		t.Fatal(err)
	}
	tr := r.Result().Trace
	if ioa.CheckSafety(tr) == nil {
		t.Fatal("ioa checker accepted the invalid execution")
	}
	if CheckTraceSafety(tr) == nil {
		t.Fatal("spec automaton accepted the invalid execution")
	}
}

// mutation classes for the property-based cross-validation.
func mutate(tr ioa.Trace, kind, pos int) ioa.Trace {
	if len(tr) == 0 {
		return tr
	}
	out := append(ioa.Trace(nil), tr...)
	i := pos % len(out)
	switch kind % 4 {
	case 0: // duplicate an event
		out = append(out[:i+1], append(ioa.Trace{out[i]}, out[i+1:]...)...)
	case 1: // delete an event
		out = append(out[:i], out[i+1:]...)
	case 2: // swap two adjacent events
		if i+1 < len(out) {
			out[i], out[i+1] = out[i+1], out[i]
		}
	case 3: // corrupt a payload
		e := out[i]
		e.Msg.Payload += "!"
		e.Pkt.Payload += "!"
		out[i] = e
	}
	return out
}

// TestQuickSpecImpliesCheckersUnderMutation: on arbitrary (mutated) trace
// prefixes, spec conformance is the stronger property — whenever the spec
// automata accept, the hand-coded safety checkers must accept too. (The
// converse fails exactly on gap traces, where a skipped message is legal
// for DL1 ∧ DL2 but refused by the gap-free automaton; see the DLSpec doc
// comment.)
func TestQuickSpecImpliesCheckersUnderMutation(t *testing.T) {
	base := protocolTrace(t, protocol.NewSeqNum(), 6, channel.DropEvery(3))
	alt := protocolTrace(t, protocol.NewCntLinear(), 4, channel.DelayFirst(3))
	f := func(useAlt bool, kind, pos uint8, double bool) bool {
		tr := base
		if useAlt {
			tr = alt
		}
		m := mutate(tr, int(kind), int(pos))
		if double {
			m = mutate(m, int(kind/4), int(pos)*7+1)
		}
		iov := ioa.CheckSafety(m) == nil
		spv := CheckTraceSafety(m) == nil
		if spv && !iov {
			return false // spec accepted something the checkers reject
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSpecStrictlyStrongerOnGapTraces pins the known divergence: skipping
// a message passes DL1 ∧ DL2 but is refused by the gap-free automaton.
func TestSpecStrictlyStrongerOnGapTraces(t *testing.T) {
	tr := ioa.Trace{
		{Kind: ioa.SendMsg, Msg: msg(0, "a")},
		{Kind: ioa.SendMsg, Msg: msg(1, "b")},
		{Kind: ioa.ReceiveMsg, Msg: msg(0, "b")}, // delivers b, skipping a
	}
	// The checker sees receive ID 0 with payload "b"... use IDs the way
	// the runner would: the first delivery gets ID 0. For the ID-based
	// checker this is payload corruption, so build it with matching IDs
	// instead: receive of message 1.
	tr[2].Msg = ioa.Message{ID: 1, Payload: "b"}
	if err := ioa.CheckSafety(tr); err != nil {
		t.Fatalf("gap trace should satisfy DL1∧DL2: %v", err)
	}
	if err := CheckTraceSafety(tr); err == nil {
		t.Fatal("gap trace should be refused by the gap-free automaton")
	}
	// On the completed run the two formulations re-converge: both reject,
	// one via DL3, one via quiescence.
	if err := ioa.CheckValid(tr); err == nil {
		t.Fatal("ioa.CheckValid should reject the incomplete run")
	}
	if err := CheckTrace(tr); err == nil {
		t.Fatal("CheckTrace should reject the incomplete run")
	}
}

// TestQuickQuiescentCheckersAgreeUnderDeletion: deleting receive events
// must trip the terminal liveness check in both formulations.
func TestQuickQuiescentCheckersAgreeUnderDeletion(t *testing.T) {
	base := protocolTrace(t, protocol.NewSeqNum(), 5, channel.Reliable())
	f := func(pos uint8) bool {
		m := mutate(base, 1, int(pos)) // deletion
		iov := ioa.CheckValid(m) == nil
		spv := CheckTrace(m) == nil
		return iov == spv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
