package protocol

import (
	"strconv"

	"repro/internal/channel"
	"repro/internal/ioa"
)

// The counting protocols use a four-letter alphabet: data packets "c0"/"c1"
// and acknowledgement packets "k0"/"k1". Like the alternating bit protocol
// they alternate a phase bit per message, but unlike it they survive
// non-FIFO behaviour by *outnumbering* stale copies: an endpoint accepts a
// phase only after receiving strictly more same-bit copies than could
// possibly be stale.
//
// The stale bound comes from the channel genie (see DESIGN.md §2): at phase
// start the endpoint snapshots the number of in-transit copies of the
// phase's header. Every one of those copies is stale — the peer has not yet
// sent any fresh copy — and any copy delivered later was either in transit
// at the snapshot (counted) or sent afterwards (fresh). Receiving
// snapshot+1 same-bit copies therefore proves at least one is fresh.
//
// Three acceptance-threshold modes realise three protocols:
//
//	modeLinear  threshold = stale snapshot
//	            → Θ(packets in transit) packets per message: the tight
//	              upper-bound shape of Theorem 4.1 ([Afe88]).
//	modeExp     threshold = max(stale snapshot, all same-bit copies ever
//	            received before the phase)
//	            → pessimistic accounting in the style of [AFWZ88]: the
//	              threshold doubles with each same-bit phase, so packet
//	              cost is exponential in the number of messages even on a
//	              perfect channel.
//	modeCheat   threshold = max(0, stale snapshot − d)
//	            → deliberately under-provisioned by d copies; the replay
//	              adversary exploits exactly this gap to produce a DL1
//	              violation, demonstrating the Theorem 4.1 mechanism.
type countingMode int

const (
	modeLinear countingMode = iota + 1
	modeExp
	modeCheat
	modeNoBind
)

func (m countingMode) String() string {
	switch m {
	case modeLinear:
		return "cntlinear"
	case modeExp:
		return "cntexp"
	case modeCheat:
		return "cheat"
	case modeNoBind:
		return "cntnobind"
	default:
		return "counting(" + strconv.Itoa(int(m)) + ")"
	}
}

func dataHeader(bit int) string { return "c" + strconv.Itoa(bit) }
func ackHeader(bit int) string  { return "k" + strconv.Itoa(bit) }

// CntLinear is the Afek-style genie-aided counting protocol.
type CntLinear struct{}

// NewCntLinear returns the linear counting protocol descriptor.
func NewCntLinear() CntLinear { return CntLinear{} }

// Name implements Protocol.
func (CntLinear) Name() string { return "cntlinear" }

// HeaderBound implements Protocol: {c0, c1, k0, k1}.
func (CntLinear) HeaderBound() (int, bool) { return 4, true }

// Bounds implements Bounded: with the ever/sent metrics counters quotiented
// away (see the AppendControlKey methods — modeLinear never reads them),
// every remaining component is capped by the channel occupancy, so the
// control space under bounded occupancy is finite.
func (CntLinear) Bounds() Bounds { return Bounds{StateBounded: true, Headers: 4} }

// AttackBounds implements DLStatus: (0, 0) — the genie-snapshot threshold
// outnumbers every stale copy, so no occupancy admits a DL violation.
func (CntLinear) AttackBounds() (int, int) { return 0, 0 }

// New implements Protocol.
func (CntLinear) New(dataGenie, ackGenie channel.Genie) (Transmitter, Receiver) {
	return newCountingPair(modeLinear, 0, dataGenie, ackGenie)
}

// CntExp is the AFWZ-style pessimistic counting protocol.
type CntExp struct{}

// NewCntExp returns the exponential counting protocol descriptor.
func NewCntExp() CntExp { return CntExp{} }

// Name implements Protocol.
func (CntExp) Name() string { return "cntexp" }

// HeaderBound implements Protocol: {c0, c1, k0, k1}.
func (CntExp) HeaderBound() (int, bool) { return 4, true }

// Bounds implements Bounded: the pessimistic thresholds *read* the ever
// counters (startPhase/snapshot take the max with them), so no finite
// control quotient exists — the acceptance threshold itself grows without
// bound with channel history. Declared unbounded; the auditor verifies the
// enumeration indeed blows past any fixed state budget.
func (CntExp) Bounds() Bounds { return Bounds{StateBounded: false, Headers: 4} }

// AttackBounds implements DLStatus: (0, 0) — the pessimistic threshold is
// never below the safe one, so the protocol inherits cntlinear's safety.
func (CntExp) AttackBounds() (int, int) { return 0, 0 }

// New implements Protocol.
func (CntExp) New(dataGenie, ackGenie channel.Genie) (Transmitter, Receiver) {
	return newCountingPair(modeExp, 0, dataGenie, ackGenie)
}

// Cheat is cntlinear with its acceptance threshold lowered by D copies.
// It exists to be attacked: for any D ≥ 1 the replay adversary finds a
// DL1-violating execution, showing that sending fewer than
// stale-copies-many packets per message is unsafe, which is the content of
// Theorem 4.1's lower bound.
type Cheat struct {
	// D is the under-provisioning: how many copies short of the safe
	// threshold the receiver accepts.
	D int
}

// NewCheat returns the under-provisioned counting protocol descriptor.
func NewCheat(d int) Cheat { return Cheat{D: d} }

// Name implements Protocol.
func (c Cheat) Name() string { return "cheat" + strconv.Itoa(c.D) }

// HeaderBound implements Protocol: {c0, c1, k0, k1}.
func (Cheat) HeaderBound() (int, bool) { return 4, true }

// Bounds implements Bounded: same control quotient as cntlinear — the
// lowered threshold breaks DL1, not boundness.
func (Cheat) Bounds() Bounds { return Bounds{StateBounded: true, Headers: 4} }

// AttackBounds implements DLStatus. Exploiting the under-provisioned
// threshold needs a phase whose stale snapshot is positive — the expected
// bit must cycle back with an old copy still in transit — so two copies on
// the data channel and three messages suffice for every D ≥ 1.
func (Cheat) AttackBounds() (int, int) { return 2, 3 }

// New implements Protocol.
func (c Cheat) New(dataGenie, ackGenie channel.Genie) (Transmitter, Receiver) {
	return newCountingPair(modeCheat, c.D, dataGenie, ackGenie)
}

// CntNoBind is the payload-binding ablation of CntLinear: the receiver's
// acceptance threshold counts all same-bit copies regardless of payload and
// delivers the payload of the copy that crossed the line. Mixing one fresh
// copy with the stale pool lets the adversary push a *stale payload* over
// the threshold — a DL1 payload-correspondence violation that the bound
// per-payload counting of CntLinear rules out. It exists for the ablation
// experiment (E9): why the counting rule must bind payloads when messages
// are distinguishable.
type CntNoBind struct{}

// NewCntNoBind returns the ablated counting protocol descriptor.
func NewCntNoBind() CntNoBind { return CntNoBind{} }

// Name implements Protocol.
func (CntNoBind) Name() string { return "cntnobind" }

// HeaderBound implements Protocol: {c0, c1, k0, k1}.
func (CntNoBind) HeaderBound() (int, bool) { return 4, true }

// Bounds implements Bounded: the pooled counter makes the receiver strictly
// smaller than cntlinear's; boundness is unaffected by the ablation.
func (CntNoBind) Bounds() Bounds { return Bounds{StateBounded: true, Headers: 4} }

// AttackBounds implements DLStatus. The pooled counter lets fresh copies
// raise the count until a stale copy crosses the threshold and its stale
// payload is delivered; as for Cheat, the expected bit must cycle back with
// an old copy in transit: two data-channel copies and three messages.
func (CntNoBind) AttackBounds() (int, int) { return 2, 3 }

// New implements Protocol.
func (CntNoBind) New(dataGenie, ackGenie channel.Genie) (Transmitter, Receiver) {
	return newCountingPair(modeNoBind, 0, dataGenie, ackGenie)
}

func newCountingPair(mode countingMode, d int, dataGenie, ackGenie channel.Genie) (Transmitter, Receiver) {
	if dataGenie == nil {
		dataGenie = channel.NoGenie{}
	}
	if ackGenie == nil {
		ackGenie = channel.NoGenie{}
	}
	t := &countingT{mode: mode, ackGenie: ackGenie}
	r := &countingR{mode: mode, d: d, dataGenie: dataGenie, lastAccepted: -1}
	r.snapshot() // phase 0 starts against an empty channel
	return t, r
}

// countingT is the counting transmitter: flood data copies of the current
// phase bit until enough fresh acknowledgements arrive.
type countingT struct {
	mode     countingMode
	ackGenie channel.Genie

	bit     int
	busy    bool
	payload string
	queue   []string

	ackStale int    // stale ack copies of the current bit at phase start
	ackFresh int    // same-bit ack copies received since phase start
	ackEver  [2]int // all ack copies ever received, per bit (modeExp)
	sent     [2]int // data copies ever sent, per bit (metrics)
}

var _ Transmitter = (*countingT)(nil)

// SetAckGenie implements AckGenieUser.
func (t *countingT) SetAckGenie(g channel.Genie) {
	if g == nil {
		g = channel.NoGenie{}
	}
	t.ackGenie = g
}

func (t *countingT) SendMsg(payload string) {
	if t.busy {
		t.queue = append(t.queue, payload)
		return
	}
	t.startPhase(payload)
}

func (t *countingT) startPhase(payload string) {
	t.busy = true
	t.payload = payload
	t.ackFresh = 0
	t.ackStale = t.ackGenie.Stale(ackHeader(t.bit))
	if t.mode == modeExp && t.ackEver[t.bit] > t.ackStale {
		t.ackStale = t.ackEver[t.bit]
	}
}

func (t *countingT) DeliverPkt(p ioa.Packet) {
	var bit int
	switch p.Header {
	case ackHeader(0):
		bit = 0
	case ackHeader(1):
		bit = 1
	default:
		return
	}
	t.ackEver[bit]++
	if !t.busy || bit != t.bit {
		return
	}
	t.ackFresh++
	if t.ackFresh > t.ackStale {
		// At least one fresh ack: the receiver accepted this phase.
		t.busy = false
		t.payload = ""
		t.bit ^= 1
		if len(t.queue) > 0 {
			t.startPhase(popFront(&t.queue))
		}
	}
}

func (t *countingT) NextPkt() (ioa.Packet, bool) {
	if !t.busy {
		return ioa.Packet{}, false
	}
	t.sent[t.bit]++
	return ioa.Packet{Header: dataHeader(t.bit), Payload: t.payload}, true
}

func (t *countingT) Busy() bool { return t.busy || len(t.queue) > 0 }

func (t *countingT) Reset() {
	*t = countingT{mode: t.mode, ackGenie: t.ackGenie, queue: t.queue[:0]}
}

func (t *countingT) Clone() Transmitter {
	c := *t
	c.queue = cloneQueue(t.queue)
	return &c
}

func (t *countingT) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, t.mode.String()).s("T{bit=").d(t.bit).s(" busy=").t(t.busy).
		s(" payload=").q(t.payload).s(" stale=").d(t.ackStale).s(" fresh=").d(t.ackFresh).
		s(" ever=").pair(t.ackEver).s(" q=").queue(t.queue).s("}").bytes()
}

// AppendControlKey implements ControlKeyer: the sent metrics counters are
// always dropped (nothing reads them), and the ackEver history counters are
// dropped except in modeExp, where startPhase folds them into the
// acceptance threshold and they are genuinely part of the control state.
// Bisimulation argument for the non-exp modes: ackEver is written in
// DeliverPkt but read only under t.mode == modeExp, so states differing
// only in ackEver/sent step identically.
func (t *countingT) AppendControlKey(dst []byte) []byte {
	b := keyTo(dst, t.mode.String()).s("T{bit=").d(t.bit).s(" busy=").t(t.busy).
		s(" payload=").q(t.payload).s(" stale=").d(t.ackStale).s(" fresh=").d(t.ackFresh)
	if t.mode == modeExp {
		b = b.s(" ever=").pair(t.ackEver)
	}
	return b.s(" q=").queue(t.queue).s("}").bytes()
}

// StateSize counts the counter words the automaton must record; the
// counters grow with channel history, which is the unbounded space of
// Theorem 3.1 made visible.
func (t *countingT) StateSize() int {
	words := []int{t.ackStale, t.ackFresh, t.ackEver[0], t.ackEver[1], t.sent[0], t.sent[1]}
	n := 1 + len(t.payload) + queueBytes(t.queue)
	for _, w := range words {
		n += len(strconv.Itoa(w))
	}
	return n
}

// countingR is the counting receiver: accept the expected phase after
// receiving strictly more same-bit copies of one payload than the stale
// threshold, then acknowledge.
type countingR struct {
	mode      countingMode
	d         int // threshold under-provisioning (modeCheat)
	dataGenie channel.Genie

	expect       int // phase bit the receiver is waiting for
	lastAccepted int // bit of the most recently accepted phase; -1 before any
	staleSnap    int // stale data copies of the expected bit at snapshot
	fresh        payloadCounts
	recvEver     [2]int

	delivered []string
	acks      []ioa.Packet
}

var _ Receiver = (*countingR)(nil)

// snapshot starts a new expected phase: record the stale bound for the
// expected bit and reset the per-payload receipt counts.
func (r *countingR) snapshot() {
	r.staleSnap = r.dataGenie.Stale(dataHeader(r.expect))
	if r.mode == modeExp && r.recvEver[r.expect] > r.staleSnap {
		r.staleSnap = r.recvEver[r.expect]
	}
	r.fresh = nil
}

// SetDataGenie implements DataGenieUser.
func (r *countingR) SetDataGenie(g channel.Genie) {
	if g == nil {
		g = channel.NoGenie{}
	}
	r.dataGenie = g
}

func (r *countingR) threshold() int {
	switch r.mode {
	case modeCheat:
		th := r.staleSnap - r.d
		if th < 0 {
			th = 0
		}
		return th
	default:
		return r.staleSnap
	}
}

func (r *countingR) DeliverPkt(p ioa.Packet) {
	var bit int
	switch p.Header {
	case dataHeader(0):
		bit = 0
	case dataHeader(1):
		bit = 1
	default:
		return
	}
	r.recvEver[bit]++
	if bit == r.expect {
		counter := p.Payload
		if r.mode == modeNoBind {
			// Ablation: one pooled counter for the whole phase, so the
			// crossing copy's payload — fresh or stale — gets delivered.
			counter = "*"
		}
		if r.fresh.inc(counter) > r.threshold() {
			// Proven fresh: accept the phase and deliver.
			r.delivered = append(r.delivered, p.Payload)
			r.lastAccepted = bit
			r.expect ^= 1
			r.snapshot()
			r.acks = append(r.acks, ioa.Packet{Header: ackHeader(bit)})
		}
		return
	}
	// A copy of the most recently accepted phase: re-acknowledge so the
	// transmitter can cross its own counting threshold. Copies of a
	// not-yet-accepted bit are never acknowledged — that is what keeps a
	// fresh ack an acceptance proof.
	if bit == r.lastAccepted {
		r.acks = append(r.acks, ioa.Packet{Header: ackHeader(bit)})
	}
}

func (r *countingR) NextPkt() (ioa.Packet, bool) {
	if len(r.acks) == 0 {
		return ioa.Packet{}, false
	}
	return popFront(&r.acks), true
}

func (r *countingR) TakeDelivered() []string { return takeDelivered(&r.delivered) }

func (r *countingR) Reset() {
	*r = countingR{mode: r.mode, d: r.d, dataGenie: r.dataGenie, lastAccepted: -1,
		delivered: r.delivered[:0], acks: r.acks[:0]}
	r.snapshot()
}

func (r *countingR) Clone() Receiver {
	c := *r
	c.delivered = cloneQueue(r.delivered)
	if len(r.acks) > 0 {
		c.acks = make([]ioa.Packet, len(r.acks))
		copy(c.acks, r.acks)
	} else {
		c.acks = nil
	}
	c.fresh = r.fresh.clone()
	return &c
}

func (r *countingR) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, r.mode.String()).s("R{expect=").d(r.expect).s(" last=").d(r.lastAccepted).
		s(" stale=").d(r.staleSnap).s(" fresh=").payloads(r.fresh).
		s(" ever=").pair(r.recvEver).s(" pendAcks=").d(len(r.acks)).s("}").bytes()
}

// AppendControlKey implements ControlKeyer: the recvEver history counters
// are dropped except in modeExp, where snapshot folds them into the stale
// threshold. Bisimulation argument mirrors countingT.AppendControlKey:
// outside modeExp, recvEver is write-only.
func (r *countingR) AppendControlKey(dst []byte) []byte {
	b := keyTo(dst, r.mode.String()).s("R{expect=").d(r.expect).s(" last=").d(r.lastAccepted).
		s(" stale=").d(r.staleSnap).s(" fresh=").payloads(r.fresh)
	if r.mode == modeExp {
		b = b.s(" ever=").pair(r.recvEver)
	}
	return b.s(" pendAcks=").d(len(r.acks)).s("}").bytes()
}

// StateSize counts the counter words recorded by the receiver; as for the
// transmitter, these grow with channel history (Theorem 3.1's unbounded
// space).
func (r *countingR) StateSize() int {
	n := 2 + len(r.acks) + queueBytes(r.delivered)
	n += len(strconv.Itoa(r.staleSnap))
	n += len(strconv.Itoa(r.recvEver[0])) + len(strconv.Itoa(r.recvEver[1]))
	for _, e := range r.fresh {
		n += len(e.payload) + len(strconv.Itoa(e.n))
	}
	return n
}
