package protocol

import (
	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/ioa"
)

// SeqNum is the naive protocol from the paper's introduction: "the naive
// protocol delivers the i-th message using the i-th header". Data packets
// carry header "d<i>" and acknowledgements "a<i>", so the alphabet grows
// linearly with the number of messages — exactly n data headers for n
// messages — while the per-endpoint state is a single counter, i.e.
// O(log n) space.
//
// Because every message has a private header, stale copies on the non-FIFO
// channel are harmless: an old data packet re-delivers a sequence number
// the receiver has already passed, and an old ack refers to a message the
// transmitter has already confirmed. The protocol is safe and live over
// arbitrary non-FIFO behaviour, at the cost Theorem 3.1 proves unavoidable:
// unbounded headers.
type SeqNum struct{}

// NewSeqNum returns the naive sequence-number protocol descriptor.
func NewSeqNum() SeqNum { return SeqNum{} }

// Name implements Protocol.
func (SeqNum) Name() string { return "seqnum" }

// HeaderBound implements Protocol: the alphabet is unbounded.
func (SeqNum) HeaderBound() (int, bool) { return 0, false }

// Bounds implements Bounded: the sequence counter is real control state
// (headers are derived from it), so the reachable control space and the
// header alphabet both grow with the number of messages. This is the
// protocol's escape from Theorem 2.1 — no finite k_t·k_r exists to pump.
func (SeqNum) Bounds() Bounds { return Bounds{StateBounded: false} }

// AttackBounds implements DLStatus: (0, 0) — private per-message headers
// make stale copies harmless at every occupancy, so the verifier must prove
// DL-safety of any space it can exhaust.
func (SeqNum) AttackBounds() (int, int) { return 0, 0 }

// New implements Protocol; the genies are ignored (no oracle needed).
func (SeqNum) New(_, _ channel.Genie) (Transmitter, Receiver) {
	return &seqNumT{}, &seqNumR{}
}

// seqnum's data and ack headers, "d<i>" and "a<i>".
var dataHeaders, ackHeaders = newHeaderTable("d"), newHeaderTable("a")

type seqNumT struct {
	seq     int // sequence number of the current message
	busy    bool
	payload string
	queue   []string
}

var _ Transmitter = (*seqNumT)(nil)

func (t *seqNumT) SendMsg(payload string) {
	if t.busy {
		t.queue = append(t.queue, payload)
		return
	}
	t.busy = true
	t.payload = payload
}

func (t *seqNumT) DeliverPkt(p ioa.Packet) {
	if !t.busy {
		return
	}
	if p.Header == "a"+strconv.Itoa(t.seq) {
		t.busy = false
		t.payload = ""
		t.seq++
		if len(t.queue) > 0 {
			t.busy = true
			t.payload = popFront(&t.queue)
		}
	}
	// Acks for already-confirmed messages are stale; ignore.
}

func (t *seqNumT) NextPkt() (ioa.Packet, bool) {
	if !t.busy {
		return ioa.Packet{}, false
	}
	return ioa.Packet{Header: dataHeaders.at(t.seq), Payload: t.payload}, true
}

func (t *seqNumT) Busy() bool { return t.busy || len(t.queue) > 0 }

func (t *seqNumT) Reset() { *t = seqNumT{queue: t.queue[:0]} }

func (t *seqNumT) Clone() Transmitter {
	c := *t
	c.queue = cloneQueue(t.queue)
	return &c
}

func (t *seqNumT) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, "seqnumT{seq=").d(t.seq).s(" busy=").t(t.busy).
		s(" payload=").q(t.payload).s(" q=").queue(t.queue).s("}").bytes()
}

// StateSize is O(log n): the counter's decimal width plus pending payloads.
func (t *seqNumT) StateSize() int {
	return len(strconv.Itoa(t.seq)) + len(t.payload) + queueBytes(t.queue)
}

type seqNumR struct {
	next      int // next expected sequence number
	delivered []string
	acks      []ioa.Packet
}

var _ Receiver = (*seqNumR)(nil)

func (r *seqNumR) DeliverPkt(p ioa.Packet) {
	if !strings.HasPrefix(p.Header, "d") {
		return
	}
	seq, err := strconv.Atoi(p.Header[1:])
	if err != nil {
		return
	}
	switch {
	case seq == r.next:
		r.delivered = append(r.delivered, p.Payload)
		r.next++
		r.acks = append(r.acks, ioa.Packet{Header: ackHeaders.at(seq)})
	case seq < r.next:
		// Stale copy of an already delivered message: re-acknowledge so a
		// transmitter whose ack was lost can make progress, never deliver.
		r.acks = append(r.acks, ioa.Packet{Header: ackHeaders.at(seq)})
	default:
		// seq > next can only be a corrupted or adversarial packet; the
		// transmitter never runs ahead. Ignore.
	}
}

func (r *seqNumR) NextPkt() (ioa.Packet, bool) {
	if len(r.acks) == 0 {
		return ioa.Packet{}, false
	}
	return popFront(&r.acks), true
}

func (r *seqNumR) TakeDelivered() []string { return takeDelivered(&r.delivered) }

func (r *seqNumR) Reset() { *r = seqNumR{delivered: r.delivered[:0], acks: r.acks[:0]} }

func (r *seqNumR) Clone() Receiver {
	c := *r
	c.delivered = cloneQueue(r.delivered)
	if len(r.acks) > 0 {
		c.acks = make([]ioa.Packet, len(r.acks))
		copy(c.acks, r.acks)
	} else {
		c.acks = nil
	}
	return &c
}

func (r *seqNumR) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, "seqnumR{next=").d(r.next).s(" pendAcks=").d(len(r.acks)).
		s(" pendDeliv=").d(len(r.delivered)).s("}").bytes()
}

func (r *seqNumR) StateSize() int {
	return len(strconv.Itoa(r.next)) + len(r.acks) + queueBytes(r.delivered)
}
