package ioa

import (
	"errors"
	"fmt"
)

// Violation describes a failed correctness property, pointing at the event
// index where the property first breaks.
type Violation struct {
	// Property is the violated property: "PL1", "DL1", "DL2", "DL3".
	Property string `json:"property"`
	// Index points at the violating event; -1 for end-of-trace properties.
	Index int `json:"index"`
	// Detail is the human-readable diagnosis.
	Detail string `json:"detail"`
}

func (v *Violation) Error() string {
	if v.Index < 0 {
		return fmt.Sprintf("%s violated at end of trace: %s", v.Property, v.Detail)
	}
	return fmt.Sprintf("%s violated at event %d: %s", v.Property, v.Index, v.Detail)
}

// AsViolation extracts a *Violation from err, if present. The checkers'
// own errors are unwrapped *Violations, and are answered without
// errors.As, whose target escapes.
func AsViolation(err error) (*Violation, bool) {
	if v, ok := err.(*Violation); ok || err == nil {
		return v, ok
	}
	var v *Violation
	if errors.As(err, &v) {
		return v, true
	}
	return nil, false
}

// CheckPL1 verifies the physical-layer safety property (PL1) on the given
// channel direction: every receive_pkt corresponds to a unique preceding
// send_pkt of an equal packet, and no send is matched by more than one
// receive. Because equal packets are interchangeable, the correspondence
// exists if and only if, at every prefix, the number of receives of each
// packet value does not exceed the number of sends of that value.
func CheckPL1(tr Trace, d Dir) error {
	outstanding := make(map[Packet]int)
	for i, e := range tr {
		if e.Dir != d {
			continue
		}
		switch e.Kind {
		case SendPkt:
			outstanding[e.Pkt]++
		case ReceivePkt:
			if outstanding[e.Pkt] == 0 {
				return &Violation{
					Property: "PL1",
					Index:    i,
					Detail:   fmt.Sprintf("receive_pkt^%s(%s) without an unmatched preceding send_pkt", d, e.Pkt),
				}
			}
			outstanding[e.Pkt]--
		}
	}
	return nil
}

// CheckDL1 verifies the data-link safety property (DL1): every receive_msg
// corresponds to a unique preceding send_msg of the same message, and each
// send_msg is matched by at most one receive_msg. The correspondence is
// established through the bookkeeping Message.ID.
func CheckDL1(tr Trace) error {
	outstanding := make(map[int]int) // message ID -> unmatched sends
	payload := make(map[int]string)
	for i, e := range tr {
		switch e.Kind {
		case SendMsg:
			outstanding[e.Msg.ID]++
			payload[e.Msg.ID] = e.Msg.Payload
		case ReceiveMsg:
			if outstanding[e.Msg.ID] == 0 {
				return &Violation{
					Property: "DL1",
					Index:    i,
					Detail: fmt.Sprintf("receive_msg(%s) has no unmatched preceding send_msg "+
						"(duplicate or spurious delivery)", e.Msg),
				}
			}
			if payload[e.Msg.ID] != e.Msg.Payload {
				return &Violation{
					Property: "DL1",
					Index:    i,
					Detail: fmt.Sprintf("receive_msg(%s) delivered payload %q but send_msg carried %q",
						e.Msg, e.Msg.Payload, payload[e.Msg.ID]),
				}
			}
			outstanding[e.Msg.ID]--
		}
	}
	return nil
}

// CheckDL2 verifies the FIFO property (DL2): if receive_msg(m) occurs
// before receive_msg(m'), the corresponding send_msg(m) occurs before
// send_msg(m'). With unique message IDs this holds iff the sequence of
// received IDs is ordered consistently with the sequence of sent IDs.
func CheckDL2(tr Trace) error {
	sendPos := make(map[int]int) // message ID -> position in send order
	nsent := 0
	lastRecvPos := -1
	for i, e := range tr {
		switch e.Kind {
		case SendMsg:
			if _, dup := sendPos[e.Msg.ID]; !dup {
				sendPos[e.Msg.ID] = nsent
			}
			nsent++
		case ReceiveMsg:
			pos, ok := sendPos[e.Msg.ID]
			if !ok {
				// DL1's problem, not DL2's; treat as out of scope here.
				continue
			}
			if pos < lastRecvPos {
				return &Violation{
					Property: "DL2",
					Index:    i,
					Detail: fmt.Sprintf("receive_msg(%s) (sent at position %d) delivered after a message "+
						"sent later (position %d): FIFO order broken", e.Msg, pos, lastRecvPos),
				}
			}
			if pos > lastRecvPos {
				lastRecvPos = pos
			}
		}
	}
	return nil
}

// CheckDL3Quiescent verifies the liveness property (DL3) in its quiescent
// form on a completed run: every send_msg has a corresponding receive_msg.
// Correspondence is per message — a preceding send_msg with the same ID and
// payload, matched at most once — not a bare count comparison, so duplicate
// deliveries of one message cannot mask another message's strand. The check
// is strictly stronger than rm ≥ sm: any trace it accepts has a matching
// receive for every send, hence at least as many receives as sends.
// (On infinite executions DL3 is a liveness property; the simulator enforces
// it operationally with step budgets.)
func CheckDL3Quiescent(tr Trace) error {
	unmatched := make(map[int]int) // message ID -> sends without a matching receive
	payload := make(map[int]string)
	sm := 0
	for _, e := range tr {
		switch e.Kind {
		case SendMsg:
			unmatched[e.Msg.ID]++
			payload[e.Msg.ID] = e.Msg.Payload
			sm++
		case ReceiveMsg:
			// A receive matches only a *preceding* send of the same message;
			// anything else (duplicate, spurious, corrupted, or out-of-order
			// positional ID) is DL1's problem and matches nothing here.
			if unmatched[e.Msg.ID] > 0 && payload[e.Msg.ID] == e.Msg.Payload {
				unmatched[e.Msg.ID]--
			}
		}
	}
	stranded, first := 0, -1
	for id, n := range unmatched {
		if n > 0 {
			stranded += n
			if first == -1 || id < first {
				first = id
			}
		}
	}
	if stranded > 0 {
		return &Violation{
			Property: "DL3",
			Index:    -1,
			Detail: fmt.Sprintf("%d of %d sent messages have no matching delivery (first stranded id %d)",
				stranded, sm, first),
		}
	}
	return nil
}

// CheckValid verifies Definition 3: the execution satisfies DL1–DL3.
// PL1 is checked on both channels as well, since an execution of the
// composed system must also be consistent with the physical layers.
func CheckValid(tr Trace) error {
	if err := CheckPL1(tr, TtoR); err != nil {
		return err
	}
	if err := CheckPL1(tr, RtoT); err != nil {
		return err
	}
	if err := CheckDL1(tr); err != nil {
		return err
	}
	if err := CheckDL2(tr); err != nil {
		return err
	}
	return CheckDL3Quiescent(tr)
}

// CheckSemiValid verifies Definition 4: the execution splits as α = α1·α2
// with α1 valid and sm(α2) = 1. For traces produced by our runner (where
// messages are submitted one at a time) this is equivalent to: all safety
// properties hold and exactly one sent message is undelivered.
func CheckSemiValid(tr Trace) error {
	if err := CheckPL1(tr, TtoR); err != nil {
		return err
	}
	if err := CheckPL1(tr, RtoT); err != nil {
		return err
	}
	if err := CheckDL1(tr); err != nil {
		return err
	}
	if err := CheckDL2(tr); err != nil {
		return err
	}
	c := tr.Count()
	if c.SM != c.RM+1 {
		return &Violation{
			Property: "DL3",
			Index:    -1,
			Detail:   fmt.Sprintf("semi-valid execution needs sm = rm+1, got sm=%d rm=%d", c.SM, c.RM),
		}
	}
	return nil
}

// CheckSafety verifies only the prefix-closed safety properties
// (PL1 on both channels, DL1, DL2). This is the check adversaries use to
// certify that a constructed execution is *invalid*: an execution that
// fails CheckSafety can not be a prefix of any valid execution.
func CheckSafety(tr Trace) error {
	if err := CheckPL1(tr, TtoR); err != nil {
		return err
	}
	if err := CheckPL1(tr, RtoT); err != nil {
		return err
	}
	if err := CheckDL1(tr); err != nil {
		return err
	}
	return CheckDL2(tr)
}
