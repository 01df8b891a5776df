package protocol

import (
	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/ioa"
)

// StabDL is a self-stabilizing data-link protocol in the style of Dolev,
// Dubois, Potop-Butucaru and Tixeuil (*Stabilizing Data-Link over non-FIFO
// Channels with Optimal Fault-Resilience*): a round-based token protocol
// whose receiver adopts a packet only after counting C+1 copies of the same
// (header, payload) pair, where C bounds the channel capacity (and hence the
// number of poison copies an adversary can pre-load).
//
// The transmitter labels the current message with a round label from a
// cyclic alphabet of K = 2C+4 labels and retransmits ⟨d<label>, payload⟩
// until it has collected C+1 acknowledgements a<label>; only then does it
// advance the label and start the next message. The receiver tracks a single
// *candidate* (header, payload) pair and adopts it after C+1 consecutive
// receipts (a receipt of a different pair restarts the count on the new
// pair); the pair it adopted last is *fenced* — further copies are answered
// with a repair acknowledgement (so the transmitter can finish collecting
// its C+1 acks) but never re-counted, which is what makes the protocol safe
// against its own retransmissions. Keeping one candidate instead of a full
// per-pair count table is what keeps the receiver's memory — and its
// control-state space under `nfvet audit` — bounded, per Dolev et al.'s
// bounded-memory construction.
//
// Why C+1 consecutive copies stabilize: at most C copies of any one pair fit
// in the channel (the occupancy bound), so neither pre-poisoned packets nor
// stale retransmissions of a no-longer-current pair can supply C+1 receipts
// on their own — the C+1st receipt must come from a genuine fresh send.
// Corrupted receiver counters are part of the corrupted configuration the
// convergence checker enumerates, and each buys the adversary at most one
// bogus adoption — a *finite* number of initial faults, after which every
// adoption corresponds to a fresh transmission. internal/stabilize makes
// that claim checkable (CheckConvergence) and `nfvet verify -stabilize`
// proves it exhaustively at bounded occupancy.
//
// The guarantee is calibrated to the capacity parameter: with enough
// occupancy headroom an adversary can bank C+1 stale copies of an
// already-delivered pair in transit and replay them consecutively after the
// fence has moved on, so the protocol is attackable *above* its design
// capacity (AttackBounds reflects this). Like the alternating bit protocol the label alphabet is cyclic, so
// the guarantee also assumes distinct messages carry distinct payloads or
// fewer than K messages between label reuses; the repo's harnesses use
// positional payloads throughout.
type StabDL struct {
	c int
}

// NewStabDL returns the stabilizing data-link protocol with channel-capacity
// parameter c (adoption threshold c+1, label alphabet 2c+4).
func NewStabDL(c int) StabDL {
	if c < 1 {
		c = 1
	}
	return StabDL{c: c}
}

// Name implements Protocol.
func (p StabDL) Name() string { return "stabdl" + strconv.Itoa(p.c) }

// K returns the label-alphabet size 2C+4.
func (p StabDL) K() int { return 2*p.c + 4 }

// HeaderBound implements Protocol: d<label> and a<label> per label.
func (p StabDL) HeaderBound() (int, bool) { return 2 * p.K(), true }

// Bounds implements Bounded: labels, the bounded ack counter and the bounded
// per-pair receipt counts are all finite under bounded occupancy.
func (p StabDL) Bounds() Bounds { return Bounds{StateBounded: true, Headers: 2 * p.K()} }

// AttackBounds implements DLStatus: above the design capacity C the
// adversary can bank C+1 stale copies of the first message's pair and
// replay them consecutively after the second message was adopted,
// re-delivering the first payload. Banking C+1 copies while keeping the
// pipeline alive needs one further occupancy slot for the in-progress
// sends, so the attack first fits at occupancy C+2. At or below capacity C
// the consecutive-count threshold is unreachable by stale copies and the
// protocol is sound.
func (p StabDL) AttackBounds() (int, int) { return p.c + 2, 2 }

// SelfStabilizing implements StabilizeStatus: the protocol is expected to
// converge to DL1–DL3 from every bounded corrupted configuration, up to
// finitely many initial faults.
func (p StabDL) SelfStabilizing() bool { return true }

// New implements Protocol; no channel oracle is needed.
func (p StabDL) New(_, _ channel.Genie) (Transmitter, Receiver) {
	return &stabDLT{c: p.c, k: p.K()}, &stabDLR{c: p.c, k: p.K()}
}

// Corruptions implements Corruptible. Index 0 of each endpoint list is the
// clean start; the other entries model single-endpoint memory corruption
// (wrong label, a garbage in-progress message with an almost-complete ack
// count, a fence on the first real message, poisoned receipt counts one shy
// of adoption). The poison alphabets carry the garbage payload "z" on the
// first two labels plus their acknowledgements.
func (p StabDL) Corruptions() CorruptionSpace {
	return CorruptionSpace{
		Transmitters: []Transmitter{
			&stabDLT{c: p.c, k: p.K()},
			&stabDLT{c: p.c, k: p.K(), label: 1},
			&stabDLT{c: p.c, k: p.K(), sender: sender{busy: true, payload: "z"}, acked: p.c},
		},
		Receivers: []Receiver{
			&stabDLR{c: p.c, k: p.K()},
			&stabDLR{c: p.c, k: p.K(), fence: "d0\x1fm0"},
			&stabDLR{c: p.c, k: p.K(), cand: "d0\x1fz", candN: p.c},
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

// stabDLT retransmits ⟨d<label>, payload⟩ until C+1 acks a<label> arrive.
type stabDLT struct {
	c, k  int
	label int
	acked int
	sender
}

var _ Transmitter = (*stabDLT)(nil)

func (t *stabDLT) DeliverPkt(p ioa.Packet) {
	if !t.busy {
		return
	}
	if p.Header != "a"+strconv.Itoa(t.label) {
		return // stale ack for another label
	}
	t.acked++
	if t.acked < t.c+1 {
		return
	}
	t.acked = 0
	t.label = (t.label + 1) % t.k
	t.confirm()
}

func (t *stabDLT) NextPkt() (ioa.Packet, bool) {
	if !t.busy {
		return ioa.Packet{}, false
	}
	return ioa.Packet{Header: "d" + strconv.Itoa(t.label), Payload: t.payload}, true
}

func (t *stabDLT) Reset() { *t = stabDLT{c: t.c, k: t.k, sender: t.reset()} }

func (t *stabDLT) Clone() Transmitter {
	c := *t
	c.sender = t.clone()
	return &c
}

func (t *stabDLT) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, "stabdlT{label=").d(t.label).s(" busy=").t(t.busy).
		s(" payload=").q(t.payload).s(" acked=").d(t.acked).
		s(" q=").queue(t.queue).s("}").bytes()
}

func (t *stabDLT) StateSize() int {
	return 3 + t.size()
}

// stabDLR tracks one candidate (header, payload) pair and adopts it after
// C+1 consecutive receipts; the last-adopted pair is fenced (repair-acked,
// never re-counted).
type stabDLR struct {
	c, k int
	// fence is the pair key ("d<j>\x1fpayload") of the last adopted packet.
	fence string
	// cand and candN are the current candidate pair and its run of
	// consecutive receipts. A receipt of a different pair restarts the run.
	cand  string
	candN int
	outbox
}

var _ Receiver = (*stabDLR)(nil)

func (r *stabDLR) DeliverPkt(p ioa.Packet) {
	rest, ok := strings.CutPrefix(p.Header, "d")
	if !ok {
		return
	}
	j, err := strconv.Atoi(rest)
	if err != nil || j < 0 || j >= r.k {
		return
	}
	pair := p.Header + "\x1f" + p.Payload
	if pair == r.fence {
		// Copy of the adopted packet: repair the transmitter's ack count,
		// never deliver twice.
		r.acks = append(r.acks, ioa.Packet{Header: "a" + rest})
		return
	}
	if pair != r.cand {
		r.cand = pair
		r.candN = 0
	}
	r.candN++
	if r.candN < r.c+1 {
		return
	}
	// C+1 consecutive receipts: at most C fit in the channel, so at least
	// one was a genuine fresh send. Adopt.
	r.delivered = append(r.delivered, p.Payload)
	r.fence = pair
	r.cand = ""
	r.candN = 0
	r.acks = append(r.acks, ioa.Packet{Header: "a" + rest})
}

func (r *stabDLR) Reset() { *r = stabDLR{c: r.c, k: r.k, outbox: r.reset()} }

func (r *stabDLR) Clone() Receiver {
	c := *r
	c.outbox = r.clone()
	return &c
}

func (r *stabDLR) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, "stabdlR{fence=").q(r.fence).s(" cand=").q(r.cand).
		s(" n=").d(r.candN).s(" pendAcks=").d(len(r.acks)).
		s(" pendDeliv=").d(len(r.delivered)).s("}").bytes()
}

func (r *stabDLR) StateSize() int {
	return 3 + len(r.fence) + len(r.cand) + r.size()
}
