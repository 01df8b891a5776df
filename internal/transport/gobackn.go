package transport

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

// GoBackN is the classic go-back-N transport protocol: the receiver keeps
// no reorder buffer and accepts only the next in-order segment,
// acknowledging cumulatively; the sender keeps a window of W unacknowledged
// segments and retransmits from the oldest.
//
// As with SlidingWindow, the sequence-number space S is the header budget:
// S = 0 gives unbounded private headers (safe over non-FIFO virtual
// links), while any finite S is breakable — a stale segment or a stale
// cumulative ack from a previous wrap aliases into the current window.
// The ack aliasing produces a *liveness* failure (the sender slides past a
// segment the receiver never accepted and the connection deadlocks), which
// the explorer's CheckDeadlock option detects.
type GoBackN struct {
	// S is the sequence-number space size; 0 means unbounded.
	S int
	// W is the send window; values < 1 are treated as 1.
	W int
}

var (
	_ protocol.Protocol = GoBackN{}
	_ protocol.Bounded  = GoBackN{}
)

// NewGoBackN returns a go-back-N transport descriptor.
func NewGoBackN(s, w int) GoBackN {
	if w < 1 {
		w = 1
	}
	return GoBackN{S: s, W: w}
}

// Name implements protocol.Protocol.
func (p GoBackN) Name() string {
	if p.S == 0 {
		return fmt.Sprintf("gbn-unbounded-w%d", p.W)
	}
	return fmt.Sprintf("gbn-s%d-w%d", p.S, p.W)
}

// HeaderBound implements protocol.Protocol.
func (p GoBackN) HeaderBound() (int, bool) {
	if p.S == 0 {
		return 0, false
	}
	return 2 * p.S, true
}

// Bounds implements protocol.Bounded with the declaration the mod-S
// quotient implies (see deriveBounds).
func (p GoBackN) Bounds() protocol.Bounds { return deriveBounds(p.S) }

// New implements protocol.Protocol (the genies are unused).
func (p GoBackN) New(_, _ channel.Genie) (protocol.Transmitter, protocol.Receiver) {
	w := p.W
	if w < 1 {
		w = 1
	}
	return &gbnSender{s: p.S, w: w}, &gbnReceiver{s: p.S}
}

// gbnSender keeps the in-flight window and slides on cumulative acks.
type gbnSender struct {
	s, w  int
	base  int
	next  int
	segs  []segment // unacked window, segs[0].seq == base
	queue []string
	rr    int
}

var (
	_ protocol.Transmitter  = (*gbnSender)(nil)
	_ protocol.ControlKeyer = (*gbnSender)(nil)
)

func (t *gbnSender) SendMsg(payload string) {
	t.queue = append(t.queue, payload)
	t.admit()
}

func (t *gbnSender) admit() {
	for len(t.segs) < t.w && len(t.queue) > 0 {
		t.segs = append(t.segs, segment{seq: t.next, payload: t.queue[0]})
		t.queue = slices.Delete(t.queue, 0, 1)
		t.next++
	}
}

// DeliverPkt handles a cumulative ack "t<h>": everything up to the
// acknowledged sequence number is confirmed. With S > 0 the sender resolves
// h to the *largest* candidate in [base−1, base+W−1] congruent to h — the
// standard wrap resolution, and exactly where a stale ack from an earlier
// wrap slides the window past segments the receiver never accepted.
func (t *gbnSender) DeliverPkt(p ioa.Packet) {
	if !strings.HasPrefix(p.Header, "t") {
		return
	}
	h, err := strconv.Atoi(p.Header[1:])
	if err != nil {
		return
	}
	upTo := -1
	if t.s == 0 {
		if h >= t.base-1 && h < t.base+len(t.segs) {
			upTo = h
		}
	} else {
		for c := t.base - 1 + len(t.segs); c >= t.base; c-- {
			if c >= 0 && c%t.s == h {
				upTo = c
				break
			}
		}
	}
	for len(t.segs) > 0 && t.segs[0].seq <= upTo {
		t.segs = slices.Delete(t.segs, 0, 1)
		t.base++
	}
	t.admit()
}

func (t *gbnSender) NextPkt() (ioa.Packet, bool) {
	n := len(t.segs)
	if n == 0 {
		return ioa.Packet{}, false
	}
	idx := t.rr % n
	t.rr = (idx + 1) % n
	seg := t.segs[idx]
	return ioa.Packet{Header: dataHeader(t.s, seg.seq), Payload: seg.payload}, true
}

func (t *gbnSender) Busy() bool { return len(t.segs) > 0 || len(t.queue) > 0 }

func (t *gbnSender) Reset() { *t = gbnSender{s: t.s, w: t.w, segs: t.segs[:0], queue: t.queue[:0]} }

func (t *gbnSender) Clone() protocol.Transmitter {
	c := *t
	c.segs = append([]segment(nil), t.segs...)
	c.queue = append([]string(nil), t.queue...)
	return &c
}

func (t *gbnSender) AppendStateKey(dst []byte) []byte {
	return appendSenderKey(dst, "gbnS", t.s, t.w, t.base, t.next, t.rr, t.segs, t.queue, false)
}

// AppendControlKey implements protocol.ControlKeyer with the mod-S
// quotient; the argument is the sliding-window sender's
// (swSender.AppendControlKey), without per-segment ack marks.
func (t *gbnSender) AppendControlKey(dst []byte) []byte {
	if t.s == 0 {
		return t.AppendStateKey(dst)
	}
	return appendSenderQuotient(dst, "gbnS/", t.s, t.w, t.base, t.rr, t.segs, t.queue, false)
}

func (t *gbnSender) StateSize() int {
	n := len(strconv.Itoa(t.base)) + len(strconv.Itoa(t.next))
	for _, sg := range t.segs {
		n += len(sg.payload) + 1
	}
	for _, q := range t.queue {
		n += len(q)
	}
	return n
}

// gbnReceiver accepts only the next in-order segment and acknowledges
// cumulatively.
type gbnReceiver struct {
	s         int
	next      int
	delivered []string
	acks      []ioa.Packet
}

var (
	_ protocol.Receiver     = (*gbnReceiver)(nil)
	_ protocol.ControlKeyer = (*gbnReceiver)(nil)
)

func (r *gbnReceiver) DeliverPkt(p ioa.Packet) {
	if !strings.HasPrefix(p.Header, "s") {
		return
	}
	h, err := strconv.Atoi(p.Header[1:])
	if err != nil {
		return
	}
	accept := false
	if r.s == 0 {
		accept = h == r.next
	} else {
		// Wrap resolution: a header matching the expected sequence number
		// mod S is taken as the expected segment — the alias a stale copy
		// from a previous wrap exploits.
		accept = h == r.next%r.s
	}
	if accept {
		r.delivered = append(r.delivered, p.Payload)
		r.next++
	}
	// Cumulative acknowledgement of the last in-order segment; nothing to
	// acknowledge before the first acceptance.
	if r.next > 0 {
		r.acks = append(r.acks, ioa.Packet{Header: ackHeader(r.s, r.next-1)})
	}
}

func (r *gbnReceiver) NextPkt() (ioa.Packet, bool) {
	if len(r.acks) == 0 {
		return ioa.Packet{}, false
	}
	p := r.acks[0]
	r.acks = slices.Delete(r.acks, 0, 1) // in place: a reset queue keeps its capacity
	return p, true
}

func (r *gbnReceiver) TakeDelivered() []string {
	out := r.delivered
	r.delivered = out[:0]
	return out
}

func (r *gbnReceiver) Reset() { *r = gbnReceiver{s: r.s, delivered: r.delivered[:0], acks: r.acks[:0]} }

func (r *gbnReceiver) Clone() protocol.Receiver {
	c := *r
	c.delivered = append([]string(nil), r.delivered...)
	c.acks = append([]ioa.Packet(nil), r.acks...)
	return &c
}

func (r *gbnReceiver) AppendStateKey(dst []byte) []byte {
	dst = appendInt(append(dst, "gbnR{s="...), r.s)
	dst = appendInt(append(dst, " next="...), r.next)
	return appendPending(dst, r.acks, r.delivered)
}

// AppendControlKey implements protocol.ControlKeyer: next's residue mod S
// and the pending queues, as for swReceiver, plus one bit, whether any
// segment has been accepted yet. The cumulative re-ack fires only once
// next > 0, so next=0 and next=S (both residue 0) would otherwise be merged
// despite behaving differently on an out-of-order delivery.
func (r *gbnReceiver) AppendControlKey(dst []byte) []byte {
	if r.s == 0 {
		return r.AppendStateKey(dst)
	}
	dst = appendInt(append(dst, "gbnR/{s="...), r.s)
	dst = appendInt(append(dst, " next%="...), r.next%r.s)
	dst = strconv.AppendBool(append(dst, " started="...), r.next > 0)
	return appendQuotientQueues(dst, r.acks, r.delivered)
}

func (r *gbnReceiver) StateSize() int {
	n := len(strconv.Itoa(r.next)) + len(r.acks)
	for _, d := range r.delivered {
		n += len(d)
	}
	return n
}
