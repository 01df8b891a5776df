// Package explore is a bounded explicit-state model checker for data link
// protocols over non-FIFO channels.
//
// Where internal/adversary's replay search follows the specific attack
// schedules used in the paper's proofs, the explorer enumerates *every*
// interleaving of protocol steps and channel behaviours within configured
// bounds: message submissions, transmitter sends, receiver sends, and — for
// each in-transit packet — delivery or permanent loss, in any order. It
// either finds a shortest counterexample (a safety-violating execution,
// returned as a re-checkable certificate trace) or certifies the protocol
// safe within the bounds.
//
// The explorer is the reproduction's strongest adversary: the paper's
// channel nondeterminism, exhausted. The alternating bit protocol's
// non-FIFO unsafety falls out as a 14-event shortest counterexample; the
// naive and counting protocols verify safe across millions of explored
// states at the same bounds.
package explore

import (
	"errors"
	"fmt"

	"repro/internal/ioa"
	"repro/internal/protocol"
)

// Config bounds the exploration.
type Config struct {
	// Messages is the number of messages submitted to the transmitter
	// (payloads "m0", "m1", ...). Submission is itself a transition, so
	// the explorer considers every interleaving of submissions with
	// channel activity.
	Messages int
	// MaxDataSends caps send_pkt^{t→r} actions per execution; without a
	// cap the always-enabled retransmission makes the space infinite.
	MaxDataSends int
	// MaxAckSends caps send_pkt^{r→t} actions per execution.
	MaxAckSends int
	// AllowDrop additionally explores permanent loss of each in-transit
	// packet. Loss never helps an adversary hunting safety violations
	// (delivering nothing is always available by just not delivering),
	// so it defaults to off; it matters for the deadlock check.
	AllowDrop bool
	// MaxStates caps the number of distinct states explored.
	MaxStates int
	// CheckDeadlock additionally reports quiescent states in which
	// delivery can never complete: every message submitted, both channels
	// empty, the transmitter idle, and messages still undelivered. Such a
	// state is a permanent DL3 (liveness) violation — no extension of the
	// execution contains the missing receive_msg. The stale-ack aliasing
	// of the bounded sliding window protocols produces exactly this shape:
	// the sender slides past a segment the receiver never got.
	CheckDeadlock bool
	// FIFO explores the order-preserving channel discipline instead of
	// the paper's non-FIFO multiset: only the oldest packet on each
	// channel may be delivered or lost. Protocols like the alternating
	// bit protocol that fall over the non-FIFO channel verify safe here,
	// isolating reordering as the decisive channel property.
	FIFO bool
	// ConstantPayload uses the paper's all-messages-identical convention
	// instead of distinct payloads.
	ConstantPayload bool
}

func (c Config) withDefaults() Config {
	if c.Messages == 0 {
		c.Messages = 2
	}
	if c.MaxDataSends == 0 {
		c.MaxDataSends = 3 * c.Messages
	}
	if c.MaxAckSends == 0 {
		c.MaxAckSends = 3 * c.Messages
	}
	if c.MaxStates == 0 {
		c.MaxStates = 1 << 20
	}
	return c
}

// Report is the outcome of an exploration.
type Report struct {
	// Violation is non-nil if a safety-violating execution exists within
	// the bounds; Counterexample is its (shortest) trace.
	Violation      *ioa.Violation
	Counterexample ioa.Trace
	// States is the number of distinct states visited.
	States int
	// Transitions is the number of transitions taken.
	Transitions int
	// Exhausted reports that the full bounded space was covered (false if
	// MaxStates stopped the search first). Safe-within-bounds claims need
	// Exhausted && Violation == nil.
	Exhausted bool
}

// node is one reachable configuration.
type node struct {
	t         protocol.Transmitter
	r         protocol.Receiver
	chData    link
	chAck     link
	submitted int
	delivered []string
	parent    int       // index into the node arena; -1 for the root
	action    ioa.Event // action that produced this node
	hasAction bool
	dataSends int
	ackSends  int
}

// Explore runs the bounded search for the given protocol.
func Explore(p protocol.Protocol, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	root, err := newRoot(p, cfg)
	if err != nil {
		return Report{}, err
	}

	var rep Report
	arena := []*node{root}
	queue := []int{0}
	seen := map[string]bool{key(root): true}

	for len(queue) > 0 {
		if len(arena) >= cfg.MaxStates {
			return rep, nil // not exhausted
		}
		idx := queue[0]
		queue = queue[1:]
		cur := arena[idx]

		succs := successors(p, cur, idx, cfg)
		// A genuine deadlock requires the transmitter to be idle (not
		// merely send-capped by the exploration bounds): an idle
		// transmitter with empty channels can never be woken again.
		if cfg.CheckDeadlock && len(succs) == 0 && cur.submitted == cfg.Messages &&
			!cur.t.Busy() && len(cur.delivered) < cur.submitted {
			rep.Violation = &ioa.Violation{
				Property: "DL3",
				Index:    -1,
				Detail: fmt.Sprintf("deadlock: %d of %d messages delivered, transmitter idle, "+
					"channels empty — no extension can deliver the rest",
					len(cur.delivered), cur.submitted),
			}
			rep.Counterexample = rebuild(arena, cur)
			rep.States = len(arena)
			return rep, nil
		}
		for _, s := range succs {
			rep.Transitions++
			if v := violates(s, cfg); v != nil {
				rep.Violation = v
				rep.Counterexample = rebuild(arena, s)
				rep.States = len(arena)
				return rep, nil
			}
			k := key(s)
			if seen[k] {
				continue
			}
			seen[k] = true
			arena = append(arena, s)
			queue = append(queue, len(arena)-1)
		}
	}
	rep.States = len(arena)
	rep.Exhausted = true
	return rep, nil
}

// errHeadMismatch guards the FIFO link against deliveries of anything but
// the head (impossible when driven through deliverable()).
var errHeadMismatch = errors.New("explore: FIFO delivery of a non-head packet")

func newRoot(p protocol.Protocol, cfg Config) (*node, error) {
	var chData, chAck link
	if cfg.FIFO {
		chData, chAck = newFifoLink(ioa.TtoR), newFifoLink(ioa.RtoT)
	} else {
		chData, chAck = newMsetLink(ioa.TtoR), newMsetLink(ioa.RtoT)
	}
	t, r := p.New(linkGenie{l: chData}, linkGenie{l: chAck})
	if t == nil || r == nil {
		return nil, errors.New("explore: protocol returned nil endpoints")
	}
	return &node{t: t, r: r, chData: chData, chAck: chAck, parent: -1}, nil
}

// clone duplicates a node, rebinding channel genies to the copies.
func (n *node) clone() *node {
	c := &node{
		t:         n.t.Clone(),
		r:         n.r.Clone(),
		chData:    n.chData.clone(),
		chAck:     n.chAck.clone(),
		submitted: n.submitted,
		delivered: append([]string(nil), n.delivered...),
		dataSends: n.dataSends,
		ackSends:  n.ackSends,
	}
	if tg, ok := c.t.(protocol.AckGenieUser); ok {
		tg.SetAckGenie(linkGenie{l: c.chAck})
	}
	if rg, ok := c.r.(protocol.DataGenieUser); ok {
		rg.SetDataGenie(linkGenie{l: c.chData})
	}
	return c
}

func payload(cfg Config, i int) string {
	if cfg.ConstantPayload {
		return "m"
	}
	return fmt.Sprintf("m%d", i)
}

// successors enumerates every enabled transition of a configuration.
func successors(p protocol.Protocol, cur *node, idx int, cfg Config) []*node {
	var out []*node

	// 1. Submit the next message.
	if cur.submitted < cfg.Messages {
		s := cur.clone()
		msg := ioa.Message{ID: s.submitted, Payload: payload(cfg, s.submitted)}
		s.t.SendMsg(msg.Payload)
		s.submitted++
		s.parent = idx
		s.action = ioa.Event{Kind: ioa.SendMsg, Msg: msg}
		s.hasAction = true
		out = append(out, s)
	}

	// 2. Transmitter output (send_pkt^{t→r} into the channel).
	if cur.dataSends < cfg.MaxDataSends {
		s := cur.clone()
		if pk, ok := s.t.NextPkt(); ok {
			s.chData.send(pk)
			s.dataSends++
			s.parent = idx
			s.action = ioa.Event{Kind: ioa.SendPkt, Dir: ioa.TtoR, Pkt: pk}
			s.hasAction = true
			out = append(out, s)
		}
	}

	// 3. Receiver output (send_pkt^{r→t} into the channel).
	if cur.ackSends < cfg.MaxAckSends {
		s := cur.clone()
		if pk, ok := s.r.NextPkt(); ok {
			s.chAck.send(pk)
			s.ackSends++
			s.parent = idx
			s.action = ioa.Event{Kind: ioa.SendPkt, Dir: ioa.RtoT, Pkt: pk}
			s.hasAction = true
			out = append(out, s)
		}
	}

	// 4. Deliver a deliverable data packet to the receiver (any in-transit
	// packet for the non-FIFO discipline; the head for FIFO).
	for _, pk := range cur.chData.deliverable() {
		s := cur.clone()
		if err := s.chData.deliver(pk); err != nil {
			continue
		}
		s.r.DeliverPkt(pk)
		s.delivered = append(s.delivered, s.r.TakeDelivered()...)
		s.parent = idx
		s.action = ioa.Event{Kind: ioa.ReceivePkt, Dir: ioa.TtoR, Pkt: pk}
		s.hasAction = true
		out = append(out, s)
	}

	// 5. Deliver a deliverable ack packet to the transmitter.
	for _, pk := range cur.chAck.deliverable() {
		s := cur.clone()
		if err := s.chAck.deliver(pk); err != nil {
			continue
		}
		s.t.DeliverPkt(pk)
		s.parent = idx
		s.action = ioa.Event{Kind: ioa.ReceivePkt, Dir: ioa.RtoT, Pkt: pk}
		s.hasAction = true
		out = append(out, s)
	}

	// 6. Optionally, drop packets permanently.
	if cfg.AllowDrop {
		for _, pk := range cur.chData.droppable() {
			s := cur.clone()
			if err := s.chData.drop(pk); err != nil {
				continue
			}
			s.parent = idx
			// A drop is channel-internal: no external action. Record a
			// synthetic marker via a zero-kind event kept out of traces.
			s.hasAction = false
			out = append(out, s)
		}
		for _, pk := range cur.chAck.droppable() {
			s := cur.clone()
			if err := s.chAck.drop(pk); err != nil {
				continue
			}
			s.parent = idx
			s.hasAction = false
			out = append(out, s)
		}
	}

	return out
}

// violates checks the safety predicate: the delivered payload sequence must
// be a prefix of the submitted payload sequence. Over-delivery is the
// paper's invalid-execution shape rm = sm + 1 (DL1); a wrong payload at
// some position is a DL1 correspondence failure; out-of-order delivery of
// distinct payloads shows up as a payload mismatch too (DL2's shape folded
// into the prefix check).
func violates(s *node, cfg Config) *ioa.Violation {
	if len(s.delivered) > s.submitted {
		return &ioa.Violation{
			Property: "DL1",
			Index:    -1,
			Detail: fmt.Sprintf("%d messages delivered but only %d submitted (rm = sm + %d)",
				len(s.delivered), s.submitted, len(s.delivered)-s.submitted),
		}
	}
	for i, got := range s.delivered {
		if want := payload(cfg, i); got != want {
			return &ioa.Violation{
				Property: "DL1",
				Index:    -1,
				Detail: fmt.Sprintf("delivery %d carried payload %q, the %d-th submitted message was %q",
					i, got, i, want),
			}
		}
	}
	return nil
}

// rebuild reconstructs the execution trace from the node arena by walking
// the parent chain and inserting receive_msg events after the receive_pkt
// events that produced them (diffing delivered lengths along the chain).
// The violating node is not in the arena yet, so it is passed explicitly.
func rebuild(arena []*node, last *node) ioa.Trace {
	// Collect the chain root→last.
	var chain []*node
	for n := last; ; {
		chain = append(chain, n)
		if n.parent < 0 {
			break
		}
		n = arena[n.parent]
	}
	// Reverse.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	var tr ioa.Trace
	prevDelivered := 0
	for _, n := range chain {
		if n.hasAction {
			tr = append(tr, n.action)
		}
		for prevDelivered < len(n.delivered) {
			tr = append(tr, ioa.Event{
				Kind: ioa.ReceiveMsg,
				Msg:  ioa.Message{ID: prevDelivered, Payload: n.delivered[prevDelivered]},
			})
			prevDelivered++
		}
	}
	return tr
}

// key canonically encodes a configuration for deduplication.
func key(n *node) string {
	return fmt.Sprintf("%s\x1f%s\x1f%s\x1f%s\x1f%d\x1f%d\x1f%d\x1f%d",
		protocol.StateKey(n.t), protocol.StateKey(n.r), n.chData.key(), n.chAck.key(),
		n.submitted, len(n.delivered), n.dataSends, n.ackSends)
}
