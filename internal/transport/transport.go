// Package transport extends the reproduction one layer up, following the
// paper's closing remark: "all our results can be extended to transport
// layer protocols over non-FIFO virtual links."
//
// A virtual link — a host-to-host path through a datagram network — has
// exactly the non-FIFO channel semantics of internal/channel: segments may
// be delayed arbitrarily and arrive out of order. The transport protocol
// here is a sliding window protocol with window W and a configurable
// sequence-number space:
//
//   - S = 0: unbounded sequence numbers. Every segment has a private
//     header, stale copies are harmless, and the protocol is safe over
//     arbitrary non-FIFO behaviour — the transport analogue of the naive
//     data link protocol, paying Θ(n) headers.
//   - S > 0: sequence numbers mod S, i.e. a bounded header alphabet of 2S
//     (data + ack). Theorem 3.1's dichotomy now bites at the transport
//     layer: a stale segment from ≥ S sequence numbers ago aliases into
//     the receive window and is accepted as new. The exhaustive explorer
//     and the replay adversary both find the violation.
//
// The endpoints implement the same Transmitter/Receiver interfaces as the
// data link protocols, so every harness in this repo — the runner, the
// adversaries, the explorer, the boundness measurements — applies
// unchanged.
//
// Their state keys carry absolute sequence numbers, which grow without
// bound with the message count; replay, coverage and the explorer need
// them. For S > 0, though, every decision both endpoint families make reads
// a sequence number only modulo S, so the endpoints also render that
// quotient as their control key (protocol.ControlKeyer) and the
// descriptors declare the Bounds it implies. The boundness auditor and the
// bounded prover enumerate control keys, so a finite sequence space audits
// CERTIFIED as the finite-state protocol it is; S = 0 has no quotient and
// declares itself state-unbounded. Registry and Parse name the descriptors.
package transport

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

// SlidingWindow describes a sliding window transport protocol.
//
// For a finite sequence space choose S ≥ 2W (the classical selective-repeat
// sizing); with S < 2W two in-flight segments can share a header and the
// receiver's wrap resolution is ambiguous even without an adversary. The
// constructor does not enforce this: undersized spaces are exactly the
// misconfigurations the explorer demonstrates broken.
type SlidingWindow struct {
	// S is the sequence-number space size; 0 means unbounded.
	S int
	// W is the window: the maximum number of unacknowledged segments in
	// flight. Must be ≥ 1; values < 1 are treated as 1.
	W int
}

var (
	_ protocol.Protocol = SlidingWindow{}
	_ protocol.Bounded  = SlidingWindow{}
)

// New returns a sliding window transport descriptor.
func New(s, w int) SlidingWindow {
	if w < 1 {
		w = 1
	}
	return SlidingWindow{S: s, W: w}
}

// Name implements protocol.Protocol.
func (p SlidingWindow) Name() string {
	if p.S == 0 {
		return fmt.Sprintf("swindow-unbounded-w%d", p.W)
	}
	return fmt.Sprintf("swindow-s%d-w%d", p.S, p.W)
}

// HeaderBound implements protocol.Protocol: S data headers plus S ack
// headers when bounded.
func (p SlidingWindow) HeaderBound() (int, bool) {
	if p.S == 0 {
		return 0, false
	}
	return 2 * p.S, true
}

// Bounds implements protocol.Bounded with the declaration the mod-S
// quotient implies (see deriveBounds).
func (p SlidingWindow) Bounds() protocol.Bounds { return deriveBounds(p.S) }

// deriveBounds is the declaration the mod-S control-key quotient implies: a
// state-bounded joint control space over exactly the 2S data and ack
// headers, or no bound at all for S = 0, where the headers are the sequence
// numbers themselves. No k_t/k_r ceilings are declared: the observed counts
// depend on the audit's occupancy cap (see `nfvet audit -sweep`), and Bounds
// ceilings are cap-independent claims.
func deriveBounds(s int) protocol.Bounds {
	if s == 0 {
		return protocol.Bounds{StateBounded: false}
	}
	return protocol.Bounds{StateBounded: true, Headers: 2 * s}
}

// New implements protocol.Protocol. The genies are ignored: the sliding
// window protocol uses no channel oracle (with S > 0 that is exactly why it
// is unsafe here).
func (p SlidingWindow) New(_, _ channel.Genie) (protocol.Transmitter, protocol.Receiver) {
	w := p.W
	if w < 1 {
		w = 1
	}
	return &swSender{s: p.S, w: w}, &swReceiver{s: p.S, w: w}
}

func dataHeader(s, seq int) string {
	if s > 0 {
		seq %= s
	}
	return "s" + strconv.Itoa(seq)
}

func ackHeader(s, seq int) string {
	if s > 0 {
		seq %= s
	}
	return "t" + strconv.Itoa(seq)
}

// segment is one in-flight transport segment at the sender.
type segment struct {
	seq     int
	payload string
	acked   bool
}

// swSender is the sending host: admit up to W segments, retransmit unacked
// segments round-robin, slide the window on cumulative acknowledgement.
type swSender struct {
	s, w  int
	base  int // sequence number of the oldest in-flight segment
	next  int // next sequence number to assign
	segs  []segment
	queue []string
	rr    int // round-robin cursor over unacked segments
}

var (
	_ protocol.Transmitter  = (*swSender)(nil)
	_ protocol.ControlKeyer = (*swSender)(nil)
)

func (t *swSender) SendMsg(payload string) {
	t.queue = append(t.queue, payload)
	t.admit()
}

func (t *swSender) admit() {
	for len(t.segs) < t.w && len(t.queue) > 0 {
		t.segs = append(t.segs, segment{seq: t.next, payload: t.queue[0]})
		t.queue = slices.Delete(t.queue, 0, 1)
		t.next++
	}
}

func (t *swSender) DeliverPkt(p ioa.Packet) {
	if !strings.HasPrefix(p.Header, "t") {
		return
	}
	h, err := strconv.Atoi(p.Header[1:])
	if err != nil {
		return
	}
	// Acknowledge the first unacked in-flight segment whose header
	// matches. With S > 0 this resolution aliases across wraps — stale
	// acks can confirm the wrong segment, one of the two unsafety vectors.
	for i := range t.segs {
		if t.segs[i].acked {
			continue
		}
		seq := t.segs[i].seq
		if (t.s == 0 && seq == h) || (t.s > 0 && seq%t.s == h) {
			t.segs[i].acked = true
			break
		}
	}
	// Slide the window past acknowledged prefixes.
	for len(t.segs) > 0 && t.segs[0].acked {
		t.segs = slices.Delete(t.segs, 0, 1)
		t.base++
	}
	t.admit()
}

func (t *swSender) NextPkt() (ioa.Packet, bool) {
	n := len(t.segs)
	if n == 0 {
		return ioa.Packet{}, false
	}
	// Round-robin over unacked segments so every in-flight segment keeps
	// being retransmitted (liveness under loss).
	for i := 0; i < n; i++ {
		idx := (t.rr + i) % n
		if t.segs[idx].acked {
			continue
		}
		t.rr = (idx + 1) % n
		seg := t.segs[idx]
		return ioa.Packet{Header: dataHeader(t.s, seg.seq), Payload: seg.payload}, true
	}
	return ioa.Packet{}, false
}

func (t *swSender) Busy() bool { return len(t.segs) > 0 || len(t.queue) > 0 }

func (t *swSender) Reset() { *t = swSender{s: t.s, w: t.w, segs: t.segs[:0], queue: t.queue[:0]} }

func (t *swSender) Clone() protocol.Transmitter {
	c := *t
	c.segs = append([]segment(nil), t.segs...)
	c.queue = append([]string(nil), t.queue...)
	return &c
}

func (t *swSender) AppendStateKey(dst []byte) []byte {
	return appendSenderKey(dst, "swS", t.s, t.w, t.base, t.next, t.rr, t.segs, t.queue, true)
}

// AppendControlKey implements protocol.ControlKeyer with the mod-S quotient
// (the S = 0 form has none and renders its state key). Two states with
// equal control keys behave identically and have equal-key successors
// because of the window invariant both senders keep: in-flight segments
// carry consecutive sequence numbers starting at base, and next == base +
// len(segs), so base's residue plus the per-segment residues determine
// every future header and every ack resolution.
func (t *swSender) AppendControlKey(dst []byte) []byte {
	if t.s == 0 {
		return t.AppendStateKey(dst)
	}
	return appendSenderQuotient(dst, "swS/", t.s, t.w, t.base, t.rr, t.segs, t.queue, true)
}

// appendSenderKey renders the shared sender state key: the absolute base,
// next and round-robin cursor, the in-flight segments as (seq, payload[,
// acked]) triples and the unadmitted queue. acked is rendered only for the
// sliding-window sender; go-back-N slides cumulatively and keeps no
// per-segment ack marks.
func appendSenderKey(dst []byte, prefix string, s, w, base, next, rr int, segs []segment, queue []string, acked bool) []byte {
	dst = append(append(dst, prefix...), "{s="...)
	dst = appendInt(dst, s)
	dst = appendInt(append(dst, " w="...), w)
	dst = appendInt(append(dst, " base="...), base)
	dst = appendInt(append(dst, " next="...), next)
	dst = appendInt(append(dst, " rr="...), rr)
	dst = append(dst, " segs="...)
	for _, sg := range segs {
		dst = appendSegment(dst, sg.seq, sg, acked)
	}
	return appendQueue(append(dst, " q="...), queue, '}')
}

// appendSenderQuotient renders the shared sender control key: base mod S,
// the in-flight segments as (seq mod S, payload[, acked]) triples, the
// round-robin cursor and the unadmitted queue, with acked as for
// appendSenderKey.
func appendSenderQuotient(dst []byte, prefix string, s, w, base, rr int, segs []segment, queue []string, acked bool) []byte {
	dst = append(append(dst, prefix...), "{s="...)
	dst = appendInt(dst, s)
	dst = appendInt(append(dst, " w="...), w)
	dst = appendInt(append(dst, " base%="...), base%s)
	dst = appendInt(append(dst, " rr="...), rr)
	dst = append(dst, " segs="...)
	for _, sg := range segs {
		dst = appendSegment(dst, sg.seq%s, sg, acked)
	}
	return appendQueue(append(dst, " q="...), queue, '}')
}

// appendSegment renders one in-flight segment as "seq:payload[:acked];",
// with seq absolute in state keys and reduced mod S in control keys.
func appendSegment(dst []byte, seq int, sg segment, acked bool) []byte {
	dst = append(append(appendInt(dst, seq), ':'), sg.payload...)
	if acked {
		dst = strconv.AppendBool(append(dst, ':'), sg.acked)
	}
	return append(dst, ';')
}

// appendQueue renders payloads "|"-joined, then the closing byte.
func appendQueue(dst []byte, queue []string, end byte) []byte {
	for i, q := range queue {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = append(dst, q...)
	}
	return append(dst, end)
}

func appendInt(dst []byte, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }

func (t *swSender) StateSize() int {
	n := len(strconv.Itoa(t.base)) + len(strconv.Itoa(t.next))
	for _, sg := range t.segs {
		n += len(sg.payload) + 1
	}
	for _, q := range t.queue {
		n += len(q)
	}
	return n
}

// swReceiver is the receiving host: buffer out-of-order segments within the
// receive window, deliver in order, acknowledge every accepted or duplicate
// segment.
type swReceiver struct {
	s, w      int
	next      int // lowest sequence number not yet delivered
	buf       segBuf
	delivered []string
	acks      []ioa.Packet
}

// segBuf is the receive window's reorder buffer: out-of-order segments
// keyed by sequence number, kept as a seq-sorted slice so state keys render
// deterministically without map iteration.
type segBuf []bufSeg

type bufSeg struct {
	seq     int
	payload string
}

func (sb segBuf) search(seq int) int {
	return sort.Search(len(sb), func(i int) bool { return sb[i].seq >= seq })
}

func (sb segBuf) get(seq int) (string, bool) {
	if i := sb.search(seq); i < len(sb) && sb[i].seq == seq {
		return sb[i].payload, true
	}
	return "", false
}

// put inserts the segment, keeping the first payload on duplicates.
func (sb *segBuf) put(seq int, payload string) {
	s := *sb
	i := s.search(seq)
	if i < len(s) && s[i].seq == seq {
		return
	}
	s = append(s, bufSeg{})
	copy(s[i+1:], s[i:])
	s[i] = bufSeg{seq: seq, payload: payload}
	*sb = s
}

func (sb *segBuf) del(seq int) {
	s := *sb
	if i := s.search(seq); i < len(s) && s[i].seq == seq {
		*sb = append(s[:i], s[i+1:]...)
	}
}

func (sb segBuf) clone() segBuf {
	if len(sb) == 0 {
		return nil
	}
	out := make(segBuf, len(sb))
	copy(out, sb)
	return out
}

var (
	_ protocol.Receiver     = (*swReceiver)(nil)
	_ protocol.ControlKeyer = (*swReceiver)(nil)
)

func (r *swReceiver) DeliverPkt(p ioa.Packet) {
	if !strings.HasPrefix(p.Header, "s") {
		return
	}
	h, err := strconv.Atoi(p.Header[1:])
	if err != nil {
		return
	}
	seq, inWindow, stale := r.resolve(h)
	switch {
	case inWindow:
		r.buf.put(seq, p.Payload)
		r.acks = append(r.acks, ioa.Packet{Header: ackHeader(r.s, seq)})
		for {
			payload, ok := r.buf.get(r.next)
			if !ok {
				break
			}
			r.buf.del(r.next)
			r.delivered = append(r.delivered, payload)
			r.next++
		}
	case stale:
		// A duplicate of something already delivered: re-acknowledge so a
		// sender whose ack was lost can slide, never deliver.
		r.acks = append(r.acks, ioa.Packet{Header: "t" + strconv.Itoa(h)})
	}
}

// resolve maps a received data header to a sequence number. With unbounded
// numbering the header is the sequence number. With mod-S numbering the
// receiver must guess which wrap the segment belongs to; it picks the
// lowest in-window candidate — the standard resolution, and exactly the
// aliasing a non-FIFO virtual link exploits: a stale segment from S (or
// more) sequence numbers ago resolves into the current window.
func (r *swReceiver) resolve(h int) (seq int, inWindow, stale bool) {
	if r.s == 0 {
		switch {
		case h >= r.next && h < r.next+r.w:
			return h, true, false
		case h < r.next:
			return h, false, true
		default:
			return h, false, false
		}
	}
	for seq := r.next; seq < r.next+r.w; seq++ {
		if seq%r.s == h {
			return seq, true, false
		}
	}
	// No in-window candidate: header of an already-delivered wrap.
	return 0, false, true
}

func (r *swReceiver) NextPkt() (ioa.Packet, bool) {
	if len(r.acks) == 0 {
		return ioa.Packet{}, false
	}
	p := r.acks[0]
	r.acks = slices.Delete(r.acks, 0, 1) // in place: a reset queue keeps its capacity
	return p, true
}

func (r *swReceiver) TakeDelivered() []string {
	out := r.delivered
	r.delivered = out[:0]
	return out
}

func (r *swReceiver) Reset() {
	*r = swReceiver{s: r.s, w: r.w, buf: r.buf[:0], delivered: r.delivered[:0], acks: r.acks[:0]}
}

func (r *swReceiver) Clone() protocol.Receiver {
	c := *r
	c.buf = r.buf.clone()
	c.delivered = append([]string(nil), r.delivered...)
	c.acks = append([]ioa.Packet(nil), r.acks...)
	return &c
}

func (r *swReceiver) AppendStateKey(dst []byte) []byte {
	dst = appendInt(append(dst, "swR{s="...), r.s)
	dst = appendInt(append(dst, " w="...), r.w)
	dst = appendInt(append(dst, " next="...), r.next)
	dst = append(dst, " buf="...)
	for _, sg := range r.buf {
		dst = append(appendInt(dst, sg.seq), ':')
		dst = append(append(dst, sg.payload...), ';')
	}
	return appendPending(dst, r.acks, r.delivered)
}

// AppendControlKey implements protocol.ControlKeyer with the receiver-side
// quotient: next's residue mod S (the only way resolve reads it), the
// reorder buffer as window-relative offsets, and the pending ack and
// delivery queues verbatim. Ack headers are already mod-S reduced, and
// every driver in the repo drains both queues, so neither reintroduces
// unbounded state.
func (r *swReceiver) AppendControlKey(dst []byte) []byte {
	if r.s == 0 {
		return r.AppendStateKey(dst)
	}
	dst = appendInt(append(dst, "swR/{s="...), r.s)
	dst = appendInt(append(dst, " w="...), r.w)
	dst = appendInt(append(dst, " next%="...), r.next%r.s)
	dst = append(dst, " buf="...)
	for _, sg := range r.buf {
		dst = append(appendInt(dst, sg.seq-r.next), ':') // window-relative offset
		dst = append(append(dst, sg.payload...), ';')
	}
	return appendQuotientQueues(dst, r.acks, r.delivered)
}

// appendPending renders the sizes of a receiver's pending ack and delivery
// queues into its state key and closes the brace.
func appendPending(dst []byte, acks []ioa.Packet, delivered []string) []byte {
	dst = appendInt(append(dst, " pendAcks="...), len(acks))
	dst = appendInt(append(dst, " pendDeliv="...), len(delivered))
	return append(dst, '}')
}

// appendQuotientQueues renders the pending ack headers and undelivered
// payloads into a receiver control key and closes the brace.
func appendQuotientQueues(dst []byte, acks []ioa.Packet, delivered []string) []byte {
	dst = append(dst, " acks="...)
	for _, a := range acks {
		dst = append(append(dst, a.Header...), ';')
	}
	return appendQueue(append(dst, " deliv="...), delivered, '}')
}

func (r *swReceiver) StateSize() int {
	n := len(strconv.Itoa(r.next)) + len(r.acks)
	for _, sg := range r.buf {
		n += len(sg.payload) + 1
	}
	for _, d := range r.delivered {
		n += len(d)
	}
	return n
}

// Registry returns the default transport protocols keyed by name: the
// instances `nfvet audit -all` certifies and CI fuzz-smokes. The classical
// selective-repeat sizing S = 2W covers both endpoint families (go-back-N's
// bufferless receiver keeps its joint space small enough to also carry the
// S = 8 sizing within the default state budget), and the unbounded sliding
// window is the transport layer's CONSISTENT specimen: the Theorem 3.1
// dichotomy, one audit table row apart. Arbitrary sizings resolve through
// Parse.
func Registry() map[string]protocol.Protocol {
	ps := []protocol.Protocol{New(4, 2), New(0, 2), NewGoBackN(4, 2), NewGoBackN(8, 4)}
	m := make(map[string]protocol.Protocol, len(ps))
	for _, p := range ps {
		m[p.Name()] = p
	}
	return m
}

// Names returns the default registry names in sorted order.
func Names() []string {
	m := Registry()
	out := make([]string, 0, len(m))
	//nfvet:allow maprange (keys are collected then sorted before use)
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Parse resolves a transport protocol name (the Name() forms
// "swindow-s<S>-w<W>", "swindow-unbounded-w<W>", "gbn-s<S>-w<W>",
// "gbn-unbounded-w<W>") to its descriptor. ok is false when the name is not
// a transport name; a malformed transport-shaped name also returns ok=false
// and falls through to the caller's unknown-name error.
func Parse(name string) (protocol.Protocol, bool) {
	var rest string
	var mk func(s, w int) protocol.Protocol
	switch {
	case strings.HasPrefix(name, "swindow-"):
		rest = strings.TrimPrefix(name, "swindow-")
		mk = func(s, w int) protocol.Protocol { return New(s, w) }
	case strings.HasPrefix(name, "gbn-"):
		rest = strings.TrimPrefix(name, "gbn-")
		mk = func(s, w int) protocol.Protocol { return NewGoBackN(s, w) }
	default:
		return nil, false
	}
	var s int
	if u, ok := strings.CutPrefix(rest, "unbounded-"); ok {
		rest = u
	} else {
		sPart, wPart, ok := strings.Cut(rest, "-")
		if !ok {
			return nil, false
		}
		digits, ok := strings.CutPrefix(sPart, "s")
		if !ok {
			return nil, false
		}
		n, err := strconv.Atoi(digits)
		if err != nil || n <= 0 {
			return nil, false
		}
		s, rest = n, wPart
	}
	digits, ok := strings.CutPrefix(rest, "w")
	if !ok {
		return nil, false
	}
	w, err := strconv.Atoi(digits)
	if err != nil || w < 1 {
		return nil, false
	}
	return mk(s, w), true
}
