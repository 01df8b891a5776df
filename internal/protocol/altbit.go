package protocol

import (
	"repro/internal/channel"
	"repro/internal/ioa"
)

// AltBit is the alternating bit protocol of Bartlett, Scantlebury and
// Wilkinson [BSW69]: the canonical bounded-header protocol. It uses four
// headers — data packets "d0"/"d1" and acknowledgements "a0"/"a1" — and a
// constant amount of state at each endpoint.
//
// Over a lossy FIFO channel the protocol is correct. Over the paper's
// non-FIFO channel it is unsafe: a delayed copy of an old data packet with
// the currently expected bit is indistinguishable from a fresh one, and the
// replay adversary (internal/adversary) finds a concrete execution with
// rm = sm + 1, violating DL1. This is the executable form of the [LMF88]
// impossibility that motivates the paper.
type AltBit struct{}

// NewAltBit returns the alternating bit protocol descriptor.
func NewAltBit() AltBit { return AltBit{} }

// Name implements Protocol.
func (AltBit) Name() string { return "altbit" }

// HeaderBound implements Protocol. The alphabet is {d0, d1, a0, a1}.
func (AltBit) HeaderBound() (int, bool) { return 4, true }

// Bounds implements Bounded. Under the audit's submit discipline (a message
// is submitted only when the transmitter is idle, with the paper's
// all-messages-identical payload) the transmitter's control states are
// bit × busy = 4 and the receiver's are expect = 2; this finiteness is what
// makes the alternating bit protocol subject to Theorem 2.1's k_t·k_r
// pumping bound — and to the replay attack that breaks it.
func (AltBit) Bounds() Bounds { return Bounds{StateBounded: true, KT: 4, KR: 2, Headers: 4} }

// AttackBounds implements DLStatus. The classic replay attack needs a stale
// d-packet with the currently expected bit, which requires the bit to cycle
// back: three messages (m0 delayed, m1 accepted, m2 expected but the stale
// m0 copy arrives first) and two copies in transit on the data channel.
func (AltBit) AttackBounds() (int, int) { return 2, 3 }

// New implements Protocol. The genies are ignored: the alternating bit
// protocol has no channel oracle (which is exactly why it is unsafe here).
func (AltBit) New(_, _ channel.Genie) (Transmitter, Receiver) {
	return &altBitT{}, &altBitR{}
}

// SelfStabilizing implements StabilizeStatus: the alternating bit protocol
// has no repair rule at all — a flipped expect bit or a poison data packet
// with the expected bit immediately costs more faults than the amnesty
// budget forgives, so a divergence witness is expected.
func (AltBit) SelfStabilizing() bool { return false }

// Corruptions implements Corruptible: single-bit endpoint corruptions plus
// forged data packets (garbage payload "z") and forged acks on either bit.
func (AltBit) Corruptions() CorruptionSpace {
	return CorruptionSpace{
		Transmitters: []Transmitter{
			&altBitT{},
			&altBitT{bit: 1},
			&altBitT{sender: sender{busy: true, payload: "z"}},
		},
		Receivers: []Receiver{
			&altBitR{},
			&altBitR{expect: 1},
		},
		DataPoison: []ioa.Packet{
			{Header: "d0", Payload: "z"},
			{Header: "d1", Payload: "z"},
		},
		AckPoison: []ioa.Packet{
			{Header: "a0"},
			{Header: "a1"},
		},
	}
}

// altBitT is the alternating bit transmitter: resend the current data
// packet until the matching ack arrives, then flip the bit.
type altBitT struct {
	bit int
	sender
}

var _ Transmitter = (*altBitT)(nil)

func (t *altBitT) DeliverPkt(p ioa.Packet) {
	if !t.busy {
		return
	}
	if p.Header == altBitAck[t.bit].Header {
		// Current message acknowledged; move on.
		t.bit ^= 1
		t.confirm()
	}
	// Stale acks (wrong bit) are ignored.
}

func (t *altBitT) NextPkt() (ioa.Packet, bool) {
	if !t.busy {
		return ioa.Packet{}, false
	}
	return ioa.Packet{Header: altBitData[t.bit], Payload: t.payload}, true
}

func (t *altBitT) Reset() { *t = altBitT{sender: t.reset()} }

func (t *altBitT) Clone() Transmitter {
	c := *t
	c.sender = t.clone()
	return &c
}

func (t *altBitT) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, "altbitT{bit=").d(t.bit).s(" busy=").t(t.busy).
		s(" payload=").q(t.payload).s(" q=").queue(t.queue).s("}").bytes()
}

func (t *altBitT) StateSize() int {
	return 2 + t.size()
}

// altBitR is the alternating bit receiver: deliver a data packet whose bit
// matches the expected bit, acknowledge every data packet with its own bit.
type altBitR struct {
	expect int
	outbox
}

var _ Receiver = (*altBitR)(nil)

// altBitAck and altBitData hold the packet values of the two-symbol header
// alphabet; working from constant tables keeps the send and delivery hot
// paths free of string building.
var (
	altBitAck  = [2]ioa.Packet{{Header: "a0"}, {Header: "a1"}}
	altBitData = [2]string{"d0", "d1"}
)

func (r *altBitR) DeliverPkt(p ioa.Packet) {
	var bit int
	switch p.Header {
	case "d0":
		bit = 0
	case "d1":
		bit = 1
	default:
		return // not a data packet; ignore
	}
	// Acknowledge with the packet's own bit (also for duplicates, so a
	// lost ack is eventually repaired by the retransmitted data packet).
	r.acks = append(r.acks, altBitAck[bit])
	if bit == r.expect {
		r.delivered = append(r.delivered, p.Payload)
		r.expect ^= 1
	}
}

func (r *altBitR) Reset() { *r = altBitR{outbox: r.reset()} }

func (r *altBitR) Clone() Receiver {
	c := *r
	c.outbox = r.clone()
	return &c
}

func (r *altBitR) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, "altbitR{expect=").d(r.expect).s(" pendAcks=").d(len(r.acks)).
		s(" pendDeliv=").d(len(r.delivered)).s("}").bytes()
}

func (r *altBitR) StateSize() int {
	return 1 + r.size()
}
