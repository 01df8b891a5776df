// Package ioa implements the communication model of Mansour & Schieber
// (PODC '89), Section 2: packets, messages, execution events, the counters
// of Definition 2, and executable checkers for the physical-layer and
// data-link-layer correctness properties PL1, DL1, DL2 and DL3.
//
// An execution is modelled as a Trace: the sequence of externally visible
// actions (send_msg, receive_msg, send_pkt, receive_pkt) of the composed
// system. Safety properties (PL1, DL1, DL2) are prefix-closed and checked
// over the whole trace; liveness properties (PL2, DL3) are checked in their
// quiescent form over completed runs, and operationally enforced by the
// simulation engine for infinite behaviours.
package ioa

import (
	"fmt"
	"strconv"
	"strings"
)

// Packet is an element of the physical layer's alphabet P.
//
// Following the paper's convention, packets are distinguished by the
// protocol-appended control information — the Header. The Payload carries
// the message content for protocols that transport it in-band; the
// header-count metric of the paper counts distinct Header values only
// (under the paper's "all messages are the same" simplification the payload
// is constant and |P| equals the number of headers).
type Packet struct {
	Header  string `json:"header"`
	Payload string `json:"payload,omitempty"`
}

// String renders the packet as header[payload] or just the header when the
// payload is empty.
func (p Packet) String() string {
	if p.Payload == "" {
		return p.Header
	}
	return p.Header + "[" + p.Payload + "]"
}

// PacketLess is the canonical ordering on packets used for deterministic
// multiset iteration.
func PacketLess(a, b Packet) bool {
	if a.Header != b.Header {
		return a.Header < b.Header
	}
	return a.Payload < b.Payload
}

// Message is an element of the data link layer's alphabet M.
//
// ID is bookkeeping used only by the trace checkers to establish the DL1
// correspondence between send_msg and receive_msg actions; protocols must
// not inspect it (the paper's lower bounds hold even when all messages are
// identical, so no protocol may rely on message identity).
type Message struct {
	ID      int    `json:"id"`
	Payload string `json:"payload,omitempty"`
}

func (m Message) String() string {
	return "m" + strconv.Itoa(m.ID) + "(" + m.Payload + ")"
}

// Dir identifies one of the two physical channels of a data link. It is
// byte-sized: the codecs write it as one byte, and a fuzz op or an event
// carries it without padding.
type Dir uint8

const (
	// TtoR is the channel from the transmitting station to the receiving
	// station (data direction).
	TtoR Dir = iota + 1
	// RtoT is the channel from the receiving station back to the
	// transmitting station (acknowledgement direction).
	RtoT
)

// MarshalText implements encoding.TextMarshaler so directions serialise as
// their names in JSON and friends.
func (d Dir) MarshalText() ([]byte, error) {
	switch d {
	case TtoR:
		return []byte("t-to-r"), nil
	case RtoT:
		return []byte("r-to-t"), nil
	default:
		return nil, fmt.Errorf("ioa: unknown direction %d", int(d))
	}
}

func (d Dir) String() string {
	switch d {
	case TtoR:
		return "t→r"
	case RtoT:
		return "r→t"
	default:
		return "dir(" + strconv.Itoa(int(d)) + ")"
	}
}

// Kind identifies the action type of an execution event.
type Kind uint8

const (
	// SendMsg is the data link input action send_msg(m).
	SendMsg Kind = iota + 1
	// ReceiveMsg is the data link output action receive_msg(m).
	ReceiveMsg
	// SendPkt is the physical layer input action send_pkt(p).
	SendPkt
	// ReceivePkt is the physical layer output action receive_pkt(p).
	ReceivePkt
)

// MarshalText implements encoding.TextMarshaler so kinds serialise as
// their action names in JSON and friends.
func (k Kind) MarshalText() ([]byte, error) {
	switch k {
	case SendMsg, ReceiveMsg, SendPkt, ReceivePkt:
		return []byte(k.String()), nil
	default:
		return nil, fmt.Errorf("ioa: unknown kind %d", int(k))
	}
}

func (k Kind) String() string {
	switch k {
	case SendMsg:
		return "send_msg"
	case ReceiveMsg:
		return "receive_msg"
	case SendPkt:
		return "send_pkt"
	case ReceivePkt:
		return "receive_pkt"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Event is one action occurrence in an execution.
type Event struct {
	Kind Kind    `json:"kind"`
	Dir  Dir     `json:"dir,omitempty"`     // set for SendPkt/ReceivePkt
	Pkt  Packet  `json:"packet,omitempty"`  // set for SendPkt/ReceivePkt
	Msg  Message `json:"message,omitempty"` // set for SendMsg/ReceiveMsg
}

func (e Event) String() string {
	switch e.Kind {
	case SendMsg, ReceiveMsg:
		return fmt.Sprintf("%s(%s)", e.Kind, e.Msg)
	default:
		return fmt.Sprintf("%s^%s(%s)", e.Kind, e.Dir, e.Pkt)
	}
}

// Trace is a finite execution: the sequence of external actions.
type Trace []Event

// String renders the trace one event per line, for certificates.
func (tr Trace) String() string {
	var b strings.Builder
	for i, e := range tr {
		fmt.Fprintf(&b, "%4d  %s\n", i, e)
	}
	return b.String()
}

// Counters holds the action counts of Definition 2 for a trace.
type Counters struct {
	SM    int // send_msg actions
	RM    int // receive_msg actions
	SPtoR int // send_pkt^{t→r}
	RPtoR int // receive_pkt^{t→r}
	SPtoT int // send_pkt^{r→t}
	RPtoT int // receive_pkt^{r→t}
}

// InTransit reports the number of packets sent but not received on the
// given channel: sp(α) − rp(α).
func (c Counters) InTransit(d Dir) int {
	if d == TtoR {
		return c.SPtoR - c.RPtoR
	}
	return c.SPtoT - c.RPtoT
}

// Count computes the Definition-2 counters of a trace.
func (tr Trace) Count() Counters {
	var c Counters
	for _, e := range tr {
		switch e.Kind {
		case SendMsg:
			c.SM++
		case ReceiveMsg:
			c.RM++
		case SendPkt:
			if e.Dir == TtoR {
				c.SPtoR++
			} else {
				c.SPtoT++
			}
		case ReceivePkt:
			if e.Dir == TtoR {
				c.RPtoR++
			} else {
				c.RPtoT++
			}
		}
	}
	return c
}
