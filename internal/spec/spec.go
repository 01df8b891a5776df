// Package spec expresses the paper's service specifications as explicit
// I/O-automaton-style state machines and checks execution traces against
// them by direct simulation.
//
// [LMF88] (which the paper builds on) specifies the data link layer and the
// physical layer as I/O automata [LT87]; an execution is correct iff its
// trace is a trace of the specification automaton. This package implements
// that view: a specification automaton consumes the trace event by event —
// environment-controlled (input) actions are always enabled, while a
// service-controlled (output) action that the automaton cannot take is
// exactly a specification violation.
//
// The package deliberately duplicates the property checkers of
// internal/ioa through a different formulation. The two implementations
// are cross-validated against each other in the tests (both on protocol
// traces and on randomly mutated ones), which is the usual defence against
// a checker bug silently blessing a broken protocol — the certificates
// produced by the adversaries in this repo are only as trustworthy as the
// checkers.
package spec

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/mset"
)

// Automaton is an explicit-state specification automaton. Input actions
// are always enabled (the I/O automaton input-enabledness condition);
// output actions may be refused, and a refusal is a violation.
type Automaton interface {
	// Name identifies the specification in error messages.
	Name() string
	// Relevant reports whether the automaton's signature contains the
	// event's action; irrelevant events are skipped by Conforms.
	Relevant(e ioa.Event) bool
	// Apply consumes one relevant event, returning an error when the
	// event is a refused output action.
	Apply(e ioa.Event) error
	// Quiescent reports whether the service owes no further output
	// actions (used for terminal liveness checks).
	Quiescent() bool
}

// Conforms replays the trace through the specification automaton and
// returns the first refusal as an *ioa.Violation (with the refusing event's
// index). A nil result means the trace is a trace of the specification.
func Conforms(tr ioa.Trace, a Automaton) error {
	for i, e := range tr {
		if !a.Relevant(e) {
			continue
		}
		if err := a.Apply(e); err != nil {
			return &ioa.Violation{
				Property: a.Name(),
				Index:    i,
				Detail:   err.Error(),
			}
		}
	}
	return nil
}

// DLSpec is the data link layer specification automaton of [LMF88]: its
// state is the FIFO queue of messages accepted by send_msg and not yet
// emitted by receive_msg, and receive_msg is enabled only for the head of
// the queue.
//
// Relationship to the hand-coded checkers of internal/ioa: conformance to
// DLSpec is the *gap-free* (prefix) formulation. On complete executions
// (conformance, then Quiescent at the end) it coincides exactly with
// DL1 ∧ DL2 ∧ DL3. On partial executions it is strictly stronger than the
// safety conjunction DL1 ∧ DL2: an execution that *skips* a message and
// delivers a later one satisfies DL1 ∧ DL2 (the skipped message is merely
// outstanding DL3 debt), but is refused by the automaton immediately —
// the automaton can never emit out of queue order. The cross-validation
// tests check exact agreement on quiescent traces and the one-way
// implication (spec-accepted ⇒ checker-accepted) on arbitrary prefixes.
type DLSpec struct {
	queue []ioa.Message
}

var _ Automaton = (*DLSpec)(nil)

// NewDLSpec returns a fresh data link specification automaton.
func NewDLSpec() *DLSpec { return &DLSpec{} }

// Name implements Automaton.
func (s *DLSpec) Name() string { return "DL-spec" }

// Relevant implements Automaton: the data link signature is
// {send_msg, receive_msg}.
func (s *DLSpec) Relevant(e ioa.Event) bool {
	return e.Kind == ioa.SendMsg || e.Kind == ioa.ReceiveMsg
}

// Apply implements Automaton. send_msg is an input action: always enabled,
// appends to the queue. receive_msg is an output action: enabled only for
// the head of the queue (delivering anything else breaks the send/receive
// correspondence or the FIFO order).
func (s *DLSpec) Apply(e ioa.Event) error {
	switch e.Kind {
	case ioa.SendMsg:
		s.queue = append(s.queue, e.Msg)
		return nil
	case ioa.ReceiveMsg:
		if len(s.queue) == 0 {
			return fmt.Errorf("receive_msg(%s) with no undelivered message (spurious or duplicate delivery)", e.Msg)
		}
		head := s.queue[0]
		if head.Payload != e.Msg.Payload {
			return fmt.Errorf("receive_msg(%s) out of order or corrupted: next undelivered message is %s", e.Msg, head)
		}
		s.queue = s.queue[1:]
		return nil
	default:
		return fmt.Errorf("event %s outside the data link signature", e)
	}
}

// Quiescent implements Automaton: no accepted message is undelivered.
func (s *DLSpec) Quiescent() bool { return len(s.queue) == 0 }

// PLSpec is the physical layer specification automaton for one channel
// direction: its state is the multiset of in-transit packets. Its traces
// are exactly the executions satisfying PL1 on that channel.
type PLSpec struct {
	dir     ioa.Dir
	transit *mset.Multiset[ioa.Packet]
}

var _ Automaton = (*PLSpec)(nil)

// NewPLSpec returns a fresh physical layer specification automaton for the
// given direction.
func NewPLSpec(dir ioa.Dir) *PLSpec {
	return &PLSpec{dir: dir, transit: mset.New[ioa.Packet](ioa.PacketLess)}
}

// Name implements Automaton.
func (s *PLSpec) Name() string { return "PL-spec(" + s.dir.String() + ")" }

// Relevant implements Automaton: the signature is the packet actions of
// this direction.
func (s *PLSpec) Relevant(e ioa.Event) bool {
	return (e.Kind == ioa.SendPkt || e.Kind == ioa.ReceivePkt) && e.Dir == s.dir
}

// Apply implements Automaton. send_pkt is an input action adding one copy;
// receive_pkt is an output action enabled only when a copy is in transit.
func (s *PLSpec) Apply(e ioa.Event) error {
	switch e.Kind {
	case ioa.SendPkt:
		s.transit.Add(e.Pkt, 1)
		return nil
	case ioa.ReceivePkt:
		if err := s.transit.Remove(e.Pkt, 1); err != nil {
			return fmt.Errorf("receive_pkt(%s) with no in-transit copy (duplication or fabrication)", e.Pkt)
		}
		return nil
	default:
		return fmt.Errorf("event %s outside the physical layer signature", e)
	}
}

// Quiescent implements Automaton. The physical layer owes nothing: it may
// drop every in-transit packet, so any state is quiescent.
func (s *PLSpec) Quiescent() bool { return true }

// CheckTraceSafety verifies only the prefix-closed part — the
// specification-automaton formulation of ioa.CheckSafety.
func CheckTraceSafety(tr ioa.Trace) error {
	if err := Conforms(tr, NewPLSpec(ioa.TtoR)); err != nil {
		return err
	}
	if err := Conforms(tr, NewPLSpec(ioa.RtoT)); err != nil {
		return err
	}
	return Conforms(tr, NewDLSpec())
}
