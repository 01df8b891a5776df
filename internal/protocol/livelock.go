package protocol

import (
	"repro/internal/channel"
	"repro/internal/ioa"
)

// Livelock is a deliberately broken single-header protocol: its transmitter
// resends forever and ignores every acknowledgement, and its receiver never
// delivers. It exists to exercise the failure-detection machinery — the
// Theorem 2.1 pumping adversary certifies its livelock by finding a
// repeated joint state, and the liveness budget of the simulator trips on
// it. It is intentionally not part of Registry().
type Livelock struct{}

// NewLivelock returns the broken protocol descriptor.
func NewLivelock() Livelock { return Livelock{} }

// Name implements Protocol.
func (Livelock) Name() string { return "livelock" }

// HeaderBound implements Protocol: the alphabet is {x}.
func (Livelock) HeaderBound() (int, bool) { return 1, true }

// Bounds implements Bounded: two transmitter states, one receiver state,
// one header — the minimal bounded protocol, and the shape Theorem 2.1's
// k_t·k_r pumping bound bites hardest on.
func (Livelock) Bounds() Bounds { return Bounds{StateBounded: true, KT: 2, KR: 1, Headers: 1} }

// AttackBounds implements DLStatus: the livelock is immediate — one message
// and a single in-transit packet already admit a no-progress cycle (the
// transmitter resends forever and the receiver never delivers).
func (Livelock) AttackBounds() (int, int) { return 1, 1 }

// New implements Protocol.
func (Livelock) New(_, _ channel.Genie) (Transmitter, Receiver) {
	return &livelockT{}, &livelockR{}
}

type livelockT struct{ busy bool }

var _ Transmitter = (*livelockT)(nil)

func (t *livelockT) SendMsg(string)        { t.busy = true }
func (t *livelockT) DeliverPkt(ioa.Packet) {}

func (t *livelockT) NextPkt() (ioa.Packet, bool) {
	if !t.busy {
		return ioa.Packet{}, false
	}
	return ioa.Packet{Header: "x"}, true
}

func (t *livelockT) Busy() bool         { return t.busy }
func (t *livelockT) Clone() Transmitter { c := *t; return &c }

func (t *livelockT) AppendStateKey(dst []byte) []byte {
	if t.busy {
		return append(dst, "livelockT{busy=true}"...)
	}
	return append(dst, "livelockT{busy=false}"...)
}

func (t *livelockT) StateSize() int { return 1 }

type livelockR struct{}

var _ Receiver = (*livelockR)(nil)

func (r *livelockR) DeliverPkt(ioa.Packet)            {}
func (r *livelockR) NextPkt() (ioa.Packet, bool)      { return ioa.Packet{}, false }
func (r *livelockR) TakeDelivered() []string          { return nil }
func (r *livelockR) Clone() Receiver                  { c := *r; return &c }
func (r *livelockR) AppendStateKey(dst []byte) []byte { return append(dst, "livelockR{}"...) }
func (r *livelockR) StateSize() int                   { return 1 }
