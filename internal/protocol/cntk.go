package protocol

import (
	"strconv"

	"repro/internal/channel"
	"repro/internal/ioa"
)

// CntK generalises the counting protocol from an alternating bit to K
// cycling headers: message i uses data header "cK:<i mod K>" and ack header
// "kK:<i mod K>", so the alphabet has 2K letters.
//
// The point of the generalisation is Theorem 4.1's 1/k factor. With L stale
// packets spread over the protocol's headers, each phase's acceptance
// threshold counts only the stale copies of *its own* header — about L/K of
// them — so the per-message packet cost is ≈ L/K + 1. Sweeping K at fixed L
// (experiment E10) traces the ⌊l/k⌋ lower bound of Theorem 4.1 directly,
// and interpolates between cntlinear (K = 2) and the naive protocol
// (K → n, cost O(1), headers Θ(n)).
//
// Safety relies on the same snapshot argument as the K = 2 protocol: when
// the receiver accepts phase i−1 it snapshots the in-transit copies of
// header (i mod K); the most recent phase that used this header is i−K, so
// every snapshotted copy is stale, and any copy delivered later either was
// in transit at the snapshot (counted) or is fresh.
type CntK struct {
	// K is the number of cycling data headers; values < 2 are treated
	// as 2.
	K int
}

var _ Protocol = CntK{}

// NewCntK returns a K-header counting protocol descriptor.
func NewCntK(k int) CntK {
	if k < 2 {
		k = 2
	}
	return CntK{K: k}
}

// Name implements Protocol.
func (p CntK) Name() string { return "cntk" + strconv.Itoa(p.K) }

// HeaderBound implements Protocol: K data + K ack headers.
func (p CntK) HeaderBound() (int, bool) { return 2 * p.K, true }

// Bounds implements Bounded: the endpoints read their phase counters only
// modulo K (see the AppendControlKey methods), and every other counter is
// capped by the in-transit occupancy, so the joint control space under
// bounded occupancy is finite with at most 2K distinct headers.
func (p CntK) Bounds() Bounds {
	k := p.K
	if k < 2 {
		k = 2
	}
	return Bounds{StateBounded: true, Headers: 2 * k}
}

// AttackBounds implements DLStatus: (0, 0) — the per-header snapshot
// argument makes every phase's threshold outnumber its stale copies,
// independent of K.
func (CntK) AttackBounds() (int, int) { return 0, 0 }

// New implements Protocol.
func (p CntK) New(dataGenie, ackGenie channel.Genie) (Transmitter, Receiver) {
	if dataGenie == nil {
		dataGenie = channel.NoGenie{}
	}
	if ackGenie == nil {
		ackGenie = channel.NoGenie{}
	}
	k := p.K
	if k < 2 {
		k = 2
	}
	t := &cntkT{k: k, ackGenie: ackGenie}
	r := &cntkR{k: k, dataGenie: dataGenie, lastAccepted: -1}
	r.snapshot()
	return t, r
}

func cntkDataHeader(k, phase int) string { return "c" + strconv.Itoa(k) + ":" + strconv.Itoa(phase%k) }
func cntkAckHeader(k, phase int) string  { return "k" + strconv.Itoa(k) + ":" + strconv.Itoa(phase%k) }

// cntkT is the K-header counting transmitter.
type cntkT struct {
	k        int
	ackGenie channel.Genie

	phase int // number of confirmed messages; current phase index
	sender

	ackStale int
	ackFresh int
}

var _ Transmitter = (*cntkT)(nil)
var _ AckGenieUser = (*cntkT)(nil)

// SetAckGenie implements AckGenieUser.
func (t *cntkT) SetAckGenie(g channel.Genie) {
	if g == nil {
		g = channel.NoGenie{}
	}
	t.ackGenie = g
}

func (t *cntkT) SendMsg(payload string) {
	if t.accept(payload) {
		t.startPhase()
	}
}

// startPhase starts counting acks for the message just made current.
func (t *cntkT) startPhase() {
	t.ackFresh = 0
	t.ackStale = t.ackGenie.Stale(cntkAckHeader(t.k, t.phase))
}

func (t *cntkT) DeliverPkt(p ioa.Packet) {
	if !t.busy || p.Header != cntkAckHeader(t.k, t.phase) {
		return
	}
	t.ackFresh++
	if t.ackFresh > t.ackStale {
		t.phase++
		if t.confirm() {
			t.startPhase()
		}
	}
}

func (t *cntkT) NextPkt() (ioa.Packet, bool) {
	if !t.busy {
		return ioa.Packet{}, false
	}
	return ioa.Packet{Header: cntkDataHeader(t.k, t.phase), Payload: t.payload}, true
}

func (t *cntkT) Reset() { *t = cntkT{k: t.k, ackGenie: t.ackGenie, sender: t.reset()} }

func (t *cntkT) Clone() Transmitter {
	c := *t
	c.sender = t.clone()
	return &c
}

func (t *cntkT) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, "cntk").d(t.k).s("T{phase=").d(t.phase).s(" busy=").t(t.busy).
		s(" payload=").q(t.payload).s(" stale=").d(t.ackStale).s(" fresh=").d(t.ackFresh).
		s(" q=").queue(t.queue).s("}").bytes()
}

// AppendControlKey implements ControlKeyer: the absolute phase counter is
// quotiented to phase mod K. Bisimulation argument: t.phase is read only by
// cntkDataHeader/cntkAckHeader, both of which take it mod K, so two
// transmitter states that agree on everything but a multiple-of-K phase
// shift emit the same packets and react identically to the same inputs.
func (t *cntkT) AppendControlKey(dst []byte) []byte {
	return keyTo(dst, "cntk").d(t.k).s("T{phase=").d(t.phase % t.k).s(" busy=").t(t.busy).
		s(" payload=").q(t.payload).s(" stale=").d(t.ackStale).s(" fresh=").d(t.ackFresh).
		s(" q=").queue(t.queue).s("}").bytes()
}

func (t *cntkT) StateSize() int {
	return 1 + t.size() +
		len(strconv.Itoa(t.phase)) + len(strconv.Itoa(t.ackStale)) + len(strconv.Itoa(t.ackFresh))
}

// cntkR is the K-header counting receiver.
type cntkR struct {
	k         int
	dataGenie channel.Genie

	accepted     int // number of accepted phases; expects header accepted mod K
	lastAccepted int // phase index of the most recent acceptance; -1 before any
	staleSnap    int
	fresh        payloadCounts

	outbox
}

var _ Receiver = (*cntkR)(nil)
var _ DataGenieUser = (*cntkR)(nil)

// SetDataGenie implements DataGenieUser.
func (r *cntkR) SetDataGenie(g channel.Genie) {
	if g == nil {
		g = channel.NoGenie{}
	}
	r.dataGenie = g
}

func (r *cntkR) snapshot() {
	r.staleSnap = r.dataGenie.Stale(cntkDataHeader(r.k, r.accepted))
	r.fresh = nil
}

func (r *cntkR) DeliverPkt(p ioa.Packet) {
	switch {
	case p.Header == cntkDataHeader(r.k, r.accepted):
		if r.fresh.inc(p.Payload) > r.staleSnap {
			r.delivered = append(r.delivered, p.Payload)
			r.lastAccepted = r.accepted
			r.accepted++
			r.snapshot()
			r.acks = append(r.acks, ioa.Packet{Header: cntkAckHeader(r.k, r.lastAccepted)})
		}
	case r.lastAccepted >= 0 && p.Header == cntkDataHeader(r.k, r.lastAccepted):
		// A copy of the most recently accepted phase: re-acknowledge so
		// the transmitter can cross its counting threshold. Copies of
		// older phases are ignored (never acked — a fresh ack must prove
		// acceptance of the phase the transmitter is waiting on).
		r.acks = append(r.acks, ioa.Packet{Header: cntkAckHeader(r.k, r.lastAccepted)})
	}
}

func (r *cntkR) Reset() {
	*r = cntkR{k: r.k, dataGenie: r.dataGenie, lastAccepted: -1, outbox: r.reset()}
	r.snapshot()
}

func (r *cntkR) Clone() Receiver {
	c := *r
	c.outbox = r.clone()
	c.fresh = r.fresh.clone()
	return &c
}

func (r *cntkR) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, "cntk").d(r.k).s("R{accepted=").d(r.accepted).s(" last=").d(r.lastAccepted).
		s(" stale=").d(r.staleSnap).s(" fresh=").payloads(r.fresh).
		s(" pendAcks=").d(len(r.acks)).s("}").bytes()
}

// AppendControlKey implements ControlKeyer: the accepted and lastAccepted
// phase counters are quotiented mod K. Bisimulation argument: both counters
// are read only through cntkDataHeader/cntkAckHeader (mod K);
// lastAccepted's "-1 = nothing accepted yet" sentinel is preserved since it
// gates the re-acknowledgement branch.
func (r *cntkR) AppendControlKey(dst []byte) []byte {
	last := r.lastAccepted
	if last >= 0 {
		last %= r.k
	}
	return keyTo(dst, "cntk").d(r.k).s("R{accepted=").d(r.accepted % r.k).s(" last=").d(last).
		s(" stale=").d(r.staleSnap).s(" fresh=").payloads(r.fresh).
		s(" pendAcks=").d(len(r.acks)).s("}").bytes()
}

func (r *cntkR) StateSize() int {
	n := 2 + r.size()
	n += len(strconv.Itoa(r.accepted)) + len(strconv.Itoa(r.staleSnap))
	for _, e := range r.fresh {
		n += len(e.payload) + len(strconv.Itoa(e.n))
	}
	return n
}
