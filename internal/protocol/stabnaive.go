package protocol

import (
	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/ioa"
)

// StabNaive is the non-stabilizing control specimen for the convergence
// checker: a round-numbered stop-and-wait protocol (data "c<round>", ack
// "k<round>", rounds mod 8) whose receiver accepts only the *current* round
// and re-acknowledges only the *previous* one. From a clean start the rounds
// advance in lockstep and the protocol behaves like an 8-round alternating
// bit protocol; from a corrupted start there is no repair rule at all — if
// the endpoint rounds ever differ by more than one (a corrupted round
// counter, or a poison acknowledgement completing a message the receiver
// never saw), the transmitter retransmits a round the receiver silently
// ignores, forever. That divergence is exactly what
// stabilize.CheckConvergence certifies (via the CertifyLivelock pumping
// machinery) and what `nfvet verify -stabilize` catches exhaustively,
// in contrast to the counting repair of stabdl.
type StabNaive struct{}

// stabNaiveRounds is the round-counter modulus.
const stabNaiveRounds = 8

// NewStabNaive returns the non-stabilizing control specimen.
func NewStabNaive() StabNaive { return StabNaive{} }

// Name implements Protocol.
func (StabNaive) Name() string { return "stabnaive" }

// HeaderBound implements Protocol: c0..c7 and k0..k7.
func (StabNaive) HeaderBound() (int, bool) { return 2 * stabNaiveRounds, true }

// Bounds implements Bounded: round × busy transmitter states, round receiver
// states under the audit's submit discipline.
func (StabNaive) Bounds() Bounds {
	return Bounds{StateBounded: true, KT: 2 * stabNaiveRounds, KR: stabNaiveRounds, Headers: 2 * stabNaiveRounds}
}

// AttackBounds implements DLStatus. From a clean start the protocol is an
// 8-round alternating bit: safe until the round counter wraps, at which
// point one delayed stale copy replays an old payload — one in-transit copy
// and nine messages suffice.
func (StabNaive) AttackBounds() (int, int) { return 1, stabNaiveRounds + 1 }

// SelfStabilizing implements StabilizeStatus: the protocol is expected to
// diverge from some corrupted configuration (that is what makes it the
// control specimen), so `nfvet verify -stabilize` FAILs it if the corrupted
// space is exhausted divergence-free.
func (StabNaive) SelfStabilizing() bool { return false }

// New implements Protocol; no channel oracle is used.
func (StabNaive) New(_, _ channel.Genie) (Transmitter, Receiver) {
	return &stabNaiveT{}, &stabNaiveR{}
}

// Corruptions implements Corruptible. A single off-by-one round corruption
// on either endpoint, one garbage data packet, or one forged
// acknowledgement is already enough to desynchronize the rounds for good.
func (StabNaive) Corruptions() CorruptionSpace {
	return CorruptionSpace{
		Transmitters: []Transmitter{
			&stabNaiveT{},
			&stabNaiveT{round: 1},
		},
		Receivers: []Receiver{
			&stabNaiveR{},
			&stabNaiveR{round: 1},
		},
		DataPoison: []ioa.Packet{{Header: "c0", Payload: "z"}},
		AckPoison:  []ioa.Packet{{Header: "k0"}},
	}
}

// stabNaiveT retransmits ⟨c<round>, payload⟩ until ack k<round> arrives.
type stabNaiveT struct {
	round int
	sender
}

var _ Transmitter = (*stabNaiveT)(nil)

func (t *stabNaiveT) DeliverPkt(p ioa.Packet) {
	if !t.busy || p.Header != "k"+strconv.Itoa(t.round) {
		return
	}
	t.round = (t.round + 1) % stabNaiveRounds
	t.confirm()
}

func (t *stabNaiveT) NextPkt() (ioa.Packet, bool) {
	if !t.busy {
		return ioa.Packet{}, false
	}
	return ioa.Packet{Header: "c" + strconv.Itoa(t.round), Payload: t.payload}, true
}

func (t *stabNaiveT) Reset() { *t = stabNaiveT{sender: t.reset()} }

func (t *stabNaiveT) Clone() Transmitter {
	c := *t
	c.sender = t.clone()
	return &c
}

func (t *stabNaiveT) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, "stabnaiveT{round=").d(t.round).s(" busy=").t(t.busy).
		s(" payload=").q(t.payload).s(" q=").queue(t.queue).s("}").bytes()
}

func (t *stabNaiveT) StateSize() int {
	return 2 + t.size()
}

// stabNaiveR accepts only the current round, re-acks only the previous one,
// and silently ignores everything else — the missing repair rule.
type stabNaiveR struct {
	round int
	outbox
}

var _ Receiver = (*stabNaiveR)(nil)

func (r *stabNaiveR) DeliverPkt(p ioa.Packet) {
	rest, ok := strings.CutPrefix(p.Header, "c")
	if !ok {
		return
	}
	j, err := strconv.Atoi(rest)
	if err != nil || j < 0 || j >= stabNaiveRounds {
		return
	}
	switch j {
	case r.round:
		r.delivered = append(r.delivered, p.Payload)
		r.acks = append(r.acks, ioa.Packet{Header: "k" + rest})
		r.round = (r.round + 1) % stabNaiveRounds
	case (r.round + stabNaiveRounds - 1) % stabNaiveRounds:
		// Duplicate of the round just accepted: repair a lost ack.
		r.acks = append(r.acks, ioa.Packet{Header: "k" + rest})
	default:
		// Any other round is silently dropped — after a corruption the
		// endpoints never find each other again.
	}
}

func (r *stabNaiveR) Reset() { *r = stabNaiveR{outbox: r.reset()} }

func (r *stabNaiveR) Clone() Receiver {
	c := *r
	c.outbox = r.clone()
	return &c
}

func (r *stabNaiveR) AppendStateKey(dst []byte) []byte {
	return keyTo(dst, "stabnaiveR{round=").d(r.round).s(" pendAcks=").d(len(r.acks)).
		s(" pendDeliv=").d(len(r.delivered)).s("}").bytes()
}

func (r *stabNaiveR) StateSize() int {
	return 1 + r.size()
}
