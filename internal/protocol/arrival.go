package protocol

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/ioa"
)

// Arrival is a stop-and-wait sequence-number protocol whose receiver
// delivers packets in *arrival order*, deduplicated per header, instead of
// buffering out-of-order sequence numbers the way seqnum does. From a clean
// start the stop-and-wait discipline makes the two orders coincide (header
// i+1 is never sent before header i is acknowledged), so the protocol is
// DL-sound at every occupancy. From a corrupted start it is the canonical
// DL2 (FIFO delivery order) casualty: one poison data packet carrying a
// future header is delivered ahead of the frontier, and when the genuine
// packet for the skipped message arrives later the receiver emits it out of
// order — the late-arrival fault the stabilize amnesty classifier charges as
// DL2. It exists so the verifier's on-the-fly DL2 property has a specimen
// that fails DL2 without also failing DL1 correspondence outright.
//
// Like livelock and cntnobind it is deliberately kept out of the registry
// (it is a specimen, not a contender); replay.LookupProtocol resolves it by
// name for the stabilize tooling.
type Arrival struct{}

// NewArrival returns the arrival-order specimen.
func NewArrival() Arrival { return Arrival{} }

// Name implements Protocol.
func (Arrival) Name() string { return "arrival" }

// HeaderBound implements Protocol: the i-th message uses header s<i>, so the
// alphabet grows with the number of messages, as for seqnum.
func (Arrival) HeaderBound() (int, bool) { return 0, false }

// Bounds implements Bounded: the sequence counter and the receiver's
// seen-header set grow with the number of messages.
func (Arrival) Bounds() Bounds { return Bounds{StateBounded: false} }

// AttackBounds implements DLStatus: clean-start stop-and-wait never has two
// distinct headers in flight, so the protocol is DL-sound at every
// occupancy. (Only a corrupted start breaks it; that is what
// SelfStabilizing declares.)
func (Arrival) AttackBounds() (int, int) { return 0, 0 }

// SelfStabilizing implements StabilizeStatus: a single poison packet causes
// more faults than its amnesty budget forgives, so the protocol is expected
// to diverge from its corrupted space.
func (Arrival) SelfStabilizing() bool { return false }

// New implements Protocol; no channel oracle is used.
func (Arrival) New(_, _ channel.Genie) (Transmitter, Receiver) {
	return &arrivalT{}, &arrivalR{}
}

// Corruptions implements Corruptible: the only corruption needed is one
// poison packet carrying the second message's header and payload — it gets
// delivered ahead of the first message and forces the late arrival.
func (Arrival) Corruptions() CorruptionSpace {
	return CorruptionSpace{
		Transmitters: []Transmitter{&arrivalT{}},
		Receivers:    []Receiver{&arrivalR{}},
		DataPoison:   []ioa.Packet{{Header: "s1", Payload: "m1"}},
	}
}

// arrival's data headers, "s<i>".
var arrivalHeaders = newHeaderTable("s")

// arrivalT is a stop-and-wait transmitter: send ⟨s<seq>, payload⟩ until ack
// a<seq> arrives, then advance seq.
type arrivalT struct {
	seq int
	sender
}

var _ Transmitter = (*arrivalT)(nil)

func (t *arrivalT) DeliverPkt(p ioa.Packet) {
	if !t.busy || p.Header != "a"+strconv.Itoa(t.seq) {
		return
	}
	t.seq++
	t.confirm()
}

func (t *arrivalT) NextPkt() (ioa.Packet, bool) {
	if !t.busy {
		return ioa.Packet{}, false
	}
	return ioa.Packet{Header: arrivalHeaders.at(t.seq), Payload: t.payload}, true
}

func (t *arrivalT) Reset() { *t = arrivalT{sender: t.reset()} }

func (t *arrivalT) Clone() Transmitter {
	c := *t
	c.sender = t.clone()
	return &c
}

func (t *arrivalT) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, "arrivalT{seq=").d(t.seq).s(" busy=").t(t.busy).
		s(" payload=").q(t.payload).s(" q=").queue(t.queue).s("}").bytes()
}

func (t *arrivalT) StateSize() int {
	return 2 + t.size()
}

// arrivalR delivers each header's payload on first receipt, in arrival
// order, and acknowledges every data packet.
type arrivalR struct {
	seen []int // sorted distinct headers already delivered
	outbox
}

var _ Receiver = (*arrivalR)(nil)

func (r *arrivalR) DeliverPkt(p ioa.Packet) {
	rest, ok := strings.CutPrefix(p.Header, "s")
	if !ok {
		return
	}
	j, err := strconv.Atoi(rest)
	if err != nil || j < 0 {
		return
	}
	// Acknowledge every receipt (also duplicates, repairing lost acks).
	r.acks = append(r.acks, ioa.Packet{Header: "a" + rest})
	i := sort.SearchInts(r.seen, j)
	if i < len(r.seen) && r.seen[i] == j {
		return // duplicate header: already delivered
	}
	r.seen = append(r.seen, 0)
	copy(r.seen[i+1:], r.seen[i:])
	r.seen[i] = j
	r.delivered = append(r.delivered, p.Payload)
}

func (r *arrivalR) Reset() { *r = arrivalR{seen: r.seen[:0], outbox: r.reset()} }

func (r *arrivalR) Clone() Receiver {
	c := *r
	c.seen = cloneQueue(r.seen)
	c.outbox = r.clone()
	return &c
}

func (r *arrivalR) AppendStateKey(dst []byte) []byte {
	k := keyTo(dst, "arrivalR{seen=")
	for i, j := range r.seen {
		if i > 0 {
			k = k.s(",")
		}
		k = k.d(j)
	}
	return k.s(" pendAcks=").d(len(r.acks)).
		s(" pendDeliv=").d(len(r.delivered)).s("}").bytes()
}

func (r *arrivalR) StateSize() int {
	return 1 + len(r.seen) + r.size()
}
