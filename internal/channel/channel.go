// Package channel implements the physical layer of Mansour & Schieber
// (PODC '89), Section 2.1: unreliable, non-FIFO packet channels.
//
// A NonFIFO channel is a counted multiset of in-transit packets. Sending a
// packet adds a copy; a delivery removes one copy of the chosen value. The
// channel satisfies the safety property (PL1) by construction: only copies
// previously added can ever be removed, and each copy is removed at most
// once. All delivery *choice* — which copy, when, or never — is externalised
// into Policy objects and the adversaries in internal/adversary, mirroring
// the paper's treatment of channel behaviour as the source of all
// nondeterminism.
//
// The probabilistic physical layer of Section 5 (property PL2p) is the
// Probabilistic policy: each sent packet is delivered immediately with
// probability 1−q and is otherwise delayed on the channel.
package channel

import (
	"fmt"
	"math/rand"

	"repro/internal/ioa"
	"repro/internal/mset"
)

// NonFIFO is a non-FIFO physical channel: a multiset of in-transit packets.
type NonFIFO struct {
	dir     ioa.Dir
	transit *mset.Multiset[ioa.Packet]
}

// NewNonFIFO returns an empty non-FIFO channel for the given direction.
func NewNonFIFO(dir ioa.Dir) *NonFIFO {
	return &NonFIFO{
		dir:     dir,
		transit: mset.New[ioa.Packet](ioa.PacketLess),
	}
}

// Send places a copy of p in transit.
// The caller (runner or adversary) records the send_pkt event.
func (c *NonFIFO) Send(p ioa.Packet) { c.transit.Add(p, 1) }

// Deliver removes one in-transit copy of p, modelling a receive_pkt action.
// It returns an error if no copy of p is in transit — attempting such a
// delivery would violate PL1, so the channel refuses it.
func (c *NonFIFO) Deliver(p ioa.Packet) error {
	if err := c.transit.Remove(p, 1); err != nil {
		return fmt.Errorf("channel %s: deliver %s: no copy in transit", c.dir, p)
	}
	return nil
}

// Drop permanently discards one in-transit copy of p. Dropping is
// indistinguishable from an infinite delay in the model; it differs from
// Deliver only in that no receive_pkt follows.
func (c *NonFIFO) Drop(p ioa.Packet) error {
	if err := c.transit.Remove(p, 1); err != nil {
		return fmt.Errorf("channel %s: drop %s: no copy in transit", c.dir, p)
	}
	return nil
}

// InTransit reports the total number of packets currently delayed on the
// channel.
func (c *NonFIFO) InTransit() int { return c.transit.Len() }

// Count reports the number of in-transit copies of the exact packet p.
func (c *NonFIFO) Count(p ioa.Packet) int { return c.transit.Count(p) }

// CountHeader reports the number of in-transit copies with the given
// header, across all payloads.
func (c *NonFIFO) CountHeader(h string) int {
	n := 0
	c.transit.ForEach(func(p ioa.Packet, k int) {
		if p.Header == h {
			n += k
		}
	})
	return n
}

// Packets returns the distinct in-transit packet values in deterministic
// order.
func (c *NonFIFO) Packets() []ioa.Packet { return c.transit.Values() }

// PacketAt returns the i-th distinct in-transit packet value in the same
// deterministic order as Packets, without materialising the slice; i must
// be below DistinctPackets.
func (c *NonFIFO) PacketAt(i int) ioa.Packet { return c.transit.At(i) }

// DistinctPackets reports the number of distinct in-transit packet values.
func (c *NonFIFO) DistinctPackets() int { return c.transit.Distinct() }

// Clone returns an independent copy of the channel state, used by
// adversaries to branch executions.
func (c *NonFIFO) Clone() *NonFIFO {
	return &NonFIFO{dir: c.dir, transit: c.transit.Clone()}
}

// Reset empties the channel, keeping the multiset backing array for reuse.
func (c *NonFIFO) Reset(dir ioa.Dir) {
	c.dir = dir
	c.transit.Reset()
}

// Key returns a canonical encoding of the in-transit contents, used as a
// memoization key by adversary searches.
func (c *NonFIFO) Key() string { return c.transit.Key() }

// AppendKey appends the canonical encoding (identical to Key) to dst
// without allocating: packets are rendered by AppendPacket into the
// caller's scratch buffer.
func (c *NonFIFO) AppendKey(dst []byte) []byte {
	return c.transit.AppendKey(dst, AppendPacket)
}

// AppendPacket appends ioa.Packet's String rendering ("header" or
// "header[payload]") to dst. It must stay byte-identical to Packet.String:
// the interned exploration cores build channel keys through it, and the
// differential harness holds them equal to the fmt-rendered string path.
func AppendPacket(dst []byte, p ioa.Packet) []byte {
	dst = append(dst, p.Header...)
	if p.Payload != "" {
		dst = append(dst, '[')
		dst = append(dst, p.Payload...)
		dst = append(dst, ']')
	}
	return dst
}

// Decision is a policy's verdict on a freshly sent packet.
type Decision int

const (
	// DeliverNow delivers the packet immediately (the "optimal" behaviour
	// of the proofs, and the 1−q branch of PL2p).
	DeliverNow Decision = iota + 1
	// Delay leaves the packet in transit; it may be delivered later by an
	// adversary or release rule, or never.
	Delay
	// Drop discards the packet permanently.
	Drop
)

func (d Decision) String() string {
	switch d {
	case DeliverNow:
		return "deliver"
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Policy decides the fate of each packet at send time. Policies are the
// executable form of "a behaviour of the physical layer".
type Policy interface {
	// OnSend is consulted once per send_pkt action, in order.
	OnSend(p ioa.Packet) Decision
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(p ioa.Packet) Decision

// OnSend implements Policy.
func (f PolicyFunc) OnSend(p ioa.Packet) Decision { return f(p) }

// Reliable delivers every packet immediately: the optimal channel behaviour
// used in the boundness definitions ("the physical layer starts behaving in
// the optimal way").
func Reliable() Policy {
	return PolicyFunc(func(ioa.Packet) Decision { return DeliverNow })
}

// DelayAll delays every packet: the fully adversarial behaviour used to
// accumulate in-transit copies.
func DelayAll() Policy {
	return PolicyFunc(func(ioa.Packet) Decision { return Delay })
}

// DelayFirst delays the first n packets sent, then delivers the rest
// immediately. This is the in-transit builder's workhorse: it strands
// exactly n copies on the channel while letting the protocol make progress.
func DelayFirst(n int) Policy {
	seen := 0
	return PolicyFunc(func(ioa.Packet) Decision {
		if seen < n {
			seen++
			return Delay
		}
		return DeliverNow
	})
}

// DelayPerHeader delays the first n copies of every distinct header and
// delivers the rest. The header-budget adversary (Theorem 3.1's
// construction) uses it to accumulate in-transit copies of the protocol's
// entire alphabet.
func DelayPerHeader(n int) Policy {
	seen := make(map[string]int)
	return PolicyFunc(func(p ioa.Packet) Decision {
		if seen[p.Header] < n {
			seen[p.Header]++
			return Delay
		}
		return DeliverNow
	})
}

// DropEvery drops every k-th packet (k ≥ 1) and delivers the rest. Used for
// loss-tolerance tests of the protocols.
func DropEvery(k int) Policy {
	if k < 1 {
		k = 1
	}
	i := 0
	return PolicyFunc(func(ioa.Packet) Decision {
		i++
		if i%k == 0 {
			return Drop
		}
		return DeliverNow
	})
}

// Probabilistic implements the probabilistic physical layer of Section 5
// (property PL2p): each packet is delivered immediately with probability
// 1−q and delayed with probability q. Delayed packets remain in transit;
// the lower bound of Theorem 5.1 is precisely about the stale copies that
// accumulate this way.
func Probabilistic(q float64, rng *rand.Rand) Policy {
	return PolicyFunc(func(ioa.Packet) Decision {
		if rng.Float64() < q {
			return Delay
		}
		return DeliverNow
	})
}

// ProbabilisticDrop is the loss variant: each packet is dropped with
// probability q instead of delayed. It models channels whose delayed
// packets never reappear, and isolates retransmission cost from
// stale-copy accumulation in the experiments.
func ProbabilisticDrop(q float64, rng *rand.Rand) Policy {
	return PolicyFunc(func(ioa.Packet) Decision {
		if rng.Float64() < q {
			return Drop
		}
		return DeliverNow
	})
}

// Script replays a fixed decision sequence and then falls back to
// DeliverNow. Adversary constructions use scripts to pin down exact channel
// behaviours in certificates and tests.
func Script(decisions ...Decision) Policy {
	i := 0
	return PolicyFunc(func(ioa.Packet) Decision {
		if i < len(decisions) {
			d := decisions[i]
			i++
			return d
		}
		return DeliverNow
	})
}

// Genie is the stale-copy oracle available to the counting protocols (see
// DESIGN.md §2 for why a genie-aided protocol is a sound substitution when
// demonstrating lower bounds). Stale reports the number of in-transit
// copies with the given header on the data (t→r) channel.
type Genie interface {
	Stale(header string) int
}

// ChannelGenie adapts a NonFIFO channel to the Genie interface.
type ChannelGenie struct {
	Ch *NonFIFO
}

// Stale implements Genie.
func (g ChannelGenie) Stale(header string) int { return g.Ch.CountHeader(header) }

// NoGenie is a Genie that always reports zero stale copies. Protocols run
// with NoGenie behave as if the channel were FIFO-clean — exactly the
// assumption the adversaries exploit.
type NoGenie struct{}

// Stale implements Genie.
func (NoGenie) Stale(string) int { return 0 }
