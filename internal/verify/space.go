package verify

import (
	"fmt"
	"strconv"

	"repro/internal/channel"
	"repro/internal/intern"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/stabilize"
)

// This file is the configuration space of the bounded model checker: the
// joint configurations (q_t, q_r, c^{t→r}, c^{r→t}, submitted, delivered)
// and the transition alphabet the exploration fans out over.
//
// Every move maps 1:1 to a replayable sim.Runner operation, which is what
// makes the checker's findings executable: a path through this graph IS a
// driver schedule, and witness.go re-drives it through the real runner and
// hands the resulting NFT trace to internal/replay for confirmation. The
// verifier's transition semantics are therefore never trusted on their own —
// replay through the production simulator is the ground truth.
//
// Conventions of the exploration (shared with the audit enumerator in
// internal/analyze where both apply; see DESIGN.md §12 for the soundness
// arguments):
//
//   - Messages are submitted only when the transmitter is idle, at most
//     MaxMessages of them, with *distinct positional payloads* "m<i>" —
//     unlike the audit's constant payload, because DL1 violations are
//     payload-correspondence violations. With positional payloads, a
//     violation-free history with d deliveries has delivered exactly
//     m0..m<d-1> in order, so (submitted, delivered) counters plus the
//     endpoint control keys fully determine the history-relevant state and
//     the visited-set quotient is sound for DL1 (checked per edge, before
//     deduplication, so no violating delivery is ever masked).
//   - Endpoint states are compared by control key (protocol.AppendControlKey),
//     inheriting the audit's bisimulation proof obligation.
//   - Receiver acknowledgements drain eagerly after every data delivery;
//     acks beyond the occupancy cap are dropped at send (a legal lossy
//     behaviour). Sends beyond a channel's cap are likewise not buffered:
//     below cap a transmitted packet is delayed in transit, at cap it is
//     dropped at send (the only way to let the transmitter keep stepping).
//   - Deliveries and drops are explored per distinct in-transit packet.
//     Under the lazy-drop reduction (POR), in-transit drops are explored
//     only at cap; see verify.go.

// payload is the positional payload of the i-th submitted message.
func payload(i int) string { return "m" + strconv.Itoa(i) }

type moveKind uint8

const (
	mvSubmit moveKind = iota + 1
	// mvTransmit sends one enabled data packet and delays it in transit
	// (below-cap transmit; decision Delay).
	mvTransmit
	// mvTransmitDrop sends one enabled data packet and drops it at send
	// (at-cap transmit; decision Drop). Below cap this move is omitted: it
	// reaches exactly the configuration of mvTransmit followed by
	// mvDropData of the same packet, so exploring it would only duplicate
	// states.
	mvTransmitDrop
	// mvDeliverData delivers one distinct in-transit data packet and then
	// drains the receiver's acknowledgements into the ack channel.
	mvDeliverData
	mvDeliverAck
	mvDropData
	mvDropAck
)

// touch is the set of configuration parts a move changes: the endpoint it
// steps and the channels it sends into, delivers from or drops from.
type touch uint8

const (
	touchT touch = 1 << iota
	touchR
	touchData
	touchAck
)

// touches returns the parts a move of kind k changes. cloneOf copies only
// the endpoints in the set, and keyOf re-renders only its components; the
// rest is the parent's. A root (kind 0) touches everything. Getting a set
// too small is a wrong answer, not a slowdown: TestExpandSharing and the
// reference store's full render (TestReferenceEquivalence) hold every kind
// to it.
func (k moveKind) touches() touch {
	switch k {
	case mvSubmit:
		return touchT
	case mvTransmit, mvTransmitDrop:
		return touchT | touchData
	case mvDeliverData:
		// The receiver steps, and its drained acknowledgements enter the
		// ack channel.
		return touchR | touchData | touchAck
	case mvDeliverAck:
		return touchT | touchAck
	case mvDropData:
		return touchData
	case mvDropAck:
		return touchAck
	default:
		return touchT | touchR | touchData | touchAck
	}
}

// move is one transition: a kind plus, for the per-packet moves, the packet.
type move struct {
	kind moveKind
	pkt  ioa.Packet
}

func (m move) String() string {
	switch m.kind {
	case mvSubmit:
		return "submit"
	case mvTransmit:
		return "transmit(delay)"
	case mvTransmitDrop:
		return "transmit(drop)"
	case mvDeliverData:
		return "deliver-data " + m.pkt.String()
	case mvDeliverAck:
		return "deliver-ack " + m.pkt.String()
	case mvDropData:
		return "drop-data " + m.pkt.String()
	case mvDropAck:
		return "drop-ack " + m.pkt.String()
	default:
		return fmt.Sprintf("move(%d)", int(m.kind))
	}
}

// config is one joint configuration of the exploration. Its endpoints may
// be shared with its parent and siblings (see cloneOf); its channels are
// its own.
type config struct {
	t         protocol.Transmitter
	r         protocol.Receiver
	chData    *channel.NonFIFO // t→r
	chAck     *channel.NonFIFO // r→t
	submitted int32
	delivered int32
	id        int32
	// key is the packed key the default store dedups on. A successor
	// inherits its parent's and keyOf refreshes what the move touched.
	key intKey

	// Stabilize-mode bookkeeping (zero and excluded from the key in clean
	// mode): remaining is the seed's amnesty minus the faults charged so
	// far (a negative balance is a divergence and is never visited),
	// frontier the next submit position whose delivery is clean progress,
	// and lost the bitmask of skipped positions that may still arrive late
	// (see stabilize.Classify).
	remaining int32
	frontier  int32
	lost      uint64
}

// cloneOf copies c for a move of kind k. The channels are always copied;
// of the endpoints, only the one the move steps is cloned, and only its
// genie is rebound to the copied channels (the discipline of
// sim.Runner.Fork and the audit enumerator). The other endpoint is shared
// with c. That is sound because expand steps only endpoints it has just
// cloned, and endpoints read their genies only while stepping (see
// protocol.AckGenieUser), so a shared endpoint's genie, still bound to
// some ancestor's channels, is never read. A released configuration's
// struct and channel storage are recycled when one is available:
// duplicate successors and expanded parents dominate the exploration.
func (e *explorer) cloneOf(c *config, k moveKind) *config {
	var nc *config
	if n := len(e.free); n > 0 {
		nc = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		nc = &config{chData: channel.NewNonFIFO(ioa.TtoR), chAck: channel.NewNonFIFO(ioa.RtoT)}
	}
	c.chData.CloneInto(nc.chData)
	c.chAck.CloneInto(nc.chAck)
	nc.submitted, nc.delivered, nc.id = c.submitted, c.delivered, 0
	nc.remaining, nc.frontier, nc.lost = c.remaining, c.frontier, c.lost
	nc.key = c.key
	nc.t, nc.r = c.t, c.r
	// BindGenies skips a nil endpoint, so only the clones are rebound.
	var t protocol.Transmitter
	var r protocol.Receiver
	tc := k.touches()
	if tc&touchT != 0 {
		t = c.t.Clone()
		nc.t = t
	}
	if tc&touchR != 0 {
		r = c.r.Clone()
		nc.r = r
	}
	protocol.BindGenies(t, r, nc.chData, nc.chAck)
	return nc
}

// release returns a dead configuration (duplicate successor or expanded
// parent) to the freelist. The endpoint references are dropped so
// endpoints no live configuration shares can be collected.
func (e *explorer) release(c *config) {
	c.t, c.r = nil, nil
	e.free = append(e.free, c)
}

// keyOf refreshes ns.key after a move of kind k: it re-renders and interns
// only the components the move touched and keeps the parent's ids for the
// rest, then copies the counters in. In stabilize mode the amnesty
// bookkeeping joins the key: two occurrences of the same joint
// configuration with different remaining budgets, frontiers or lost sets
// have different judgeable futures, so merging them would be unsound.
func (e *explorer) keyOf(ns *config, k moveKind) {
	tc := k.touches()
	if tc&touchT != 0 {
		e.kbuf = protocol.AppendControlKey(e.kbuf[:0], ns.t)
		ns.key.tc = e.tab.InternBytes(e.kbuf)
	}
	if tc&touchR != 0 {
		e.kbuf = protocol.AppendControlKey(e.kbuf[:0], ns.r)
		ns.key.rc = e.tab.InternBytes(e.kbuf)
	}
	if tc&touchData != 0 {
		e.kbuf = ns.chData.AppendKey(e.kbuf[:0])
		ns.key.dk = e.tab.InternBytes(e.kbuf)
	}
	if tc&touchAck != 0 {
		e.kbuf = ns.chAck.AppendKey(e.kbuf[:0])
		ns.key.ak = e.tab.InternBytes(e.kbuf)
	}
	ns.key.sub, ns.key.del = ns.submitted, ns.delivered
	if e.cfg.Stabilize {
		ns.key.grem, ns.key.gfro, ns.key.lost = ns.remaining, ns.frontier, ns.lost
	}
}

// render returns the canonical key of c: the same four components keyOf
// interns, joined by '|', then the counters and, in stabilize mode, the
// amnesty bookkeeping (clean-mode keys omit it, so space hashes stay
// comparable across versions). It renders every component from the
// configuration itself, never from interned ids, so the tests' reference
// store, which dedups on these bytes, checks keyOf's touch sets
// independently. The bytes alias e.kbuf and are valid until the next render
// or keyOf.
func (e *explorer) render(c *config) []byte {
	b := protocol.AppendControlKey(e.kbuf[:0], c.t)
	b = append(b, '|')
	b = protocol.AppendControlKey(b, c.r)
	b = append(b, '|')
	b = c.chData.AppendKey(b)
	b = append(b, '|')
	b = c.chAck.AppendKey(b)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(c.submitted), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(c.delivered), 10)
	if e.cfg.Stabilize {
		b = append(b, "|g"...)
		b = strconv.AppendInt(b, int64(c.remaining), 10)
		b = append(b, "|f"...)
		b = strconv.AppendInt(b, int64(c.frontier), 10)
		b = append(b, "|l"...)
		b = strconv.AppendUint(b, c.lost, 16)
	}
	e.kbuf = b
	return b
}

// parentEdge records how a configuration was first reached, for witness
// path reconstruction. The move's packet rides as an interned id (pktIntern)
// rather than an ioa.Packet: the table is one entry per visited state, and
// two inline string headers per entry would multiply its footprint and pin
// every packet string of every released configuration.
type parentEdge struct {
	parent int32
	kind   moveKind
	pkt    uint32 // interned via explorer.pkts; 0 is the zero packet
}

// pktIntern interns ioa.Packets to dense ids, reversibly (witness
// reconstruction needs the packet back to re-drive the move). Id 0 is the
// zero packet, so packet-less moves pack to the zero parentEdge fields.
type pktIntern struct {
	ids  map[ioa.Packet]uint32
	pkts []ioa.Packet
}

func newPktIntern() *pktIntern {
	return &pktIntern{ids: map[ioa.Packet]uint32{{}: 0}, pkts: []ioa.Packet{{}}}
}

func (pi *pktIntern) intern(p ioa.Packet) uint32 {
	if id, ok := pi.ids[p]; ok {
		return id
	}
	id := uint32(len(pi.pkts))
	pi.pkts = append(pi.pkts, p)
	pi.ids[p] = id
	return id
}

func (pi *pktIntern) at(id uint32) ioa.Packet { return pi.pkts[id] }

// edgeRec is one explored transition that the DL3 analysis walks: one that
// neither makes progress nor loops on its node (see explorer.edge).
type edgeRec struct {
	from, to int32
}

// bitset is a set of node ids, grown as ids are added.
type bitset []uint64

func (b *bitset) add(i int32) {
	for int(i)/64 >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[i/64] |= 1 << (i % 64)
}

func (b bitset) has(i int32) bool {
	return int(i)/64 < len(b) && b[i/64]&(1<<(i%64)) != 0
}

// foundViolation is an on-the-fly safety finding: the pre-state and the
// delivering move that produced a payload out of correspondence (clean
// mode) or over the amnesty budget (stabilize mode).
type foundViolation struct {
	parent int32
	mv     move
	detail string
}

// chunkLen is the element count of one chunk of a chunked log.
const chunkLen = 1 << 12

// chunked is an append-only log kept in fixed-size chunks, for the
// exploration's queue and per-node and per-edge records, which run to
// millions. A slice grown by append copies itself at every growth step,
// and past small sizes it grows by 1.25×, so a slice that reaches n
// elements allocates about 5n in total; a chunk is allocated once and
// never copied.
type chunked[T any] struct {
	chunks []*[chunkLen]T
	n      int
}

func (c *chunked[T]) push(v T) {
	if c.n%chunkLen == 0 {
		c.chunks = append(c.chunks, new([chunkLen]T))
	}
	c.chunks[c.n/chunkLen][c.n%chunkLen] = v
	c.n++
}

func (c *chunked[T]) at(i int32) T { return c.chunks[i/chunkLen][i%chunkLen] }

func (c *chunked[T]) len() int { return c.n }

// explorer carries the exploration's accumulators. Everything it keeps
// per visited configuration is indexed by the configuration's id: its
// packed key in keys, its configuration (until expanded) in queue, how it
// was first reached in parents, and whether it has a progress edge out in
// progress. The key log doubles as the node record the DL3 analysis reads
// (submitted, delivered and, in stabilize mode, the clean frontier; gfro and
// frontier are 0 in clean mode), and its length is the number of visited
// configurations.
type explorer struct {
	cfg   Config
	proto protocol.Protocol
	por   bool

	seen    store
	keys    chunked[intKey]  // packed keys by id, appended by seen
	queue   chunked[*config] // fresh configurations by id, expanded in order
	free    []*config        // released configurations recycled by cloneOf
	parents chunked[parentEdge]

	// The explored graph, as much of it as the DL3 analysis needs: nedges
	// counts every edge, progress marks the sources of progress edges, and
	// edges keeps the rest, less self-loops.
	nedges   int
	progress bitset
	edges    chunked[edgeRec]

	// tab interns the key components of keyOf, pkts the parent-edge
	// packets, and kbuf is the scratch buffer keyOf and render write into.
	tab  *intern.Local
	pkts *pktIntern
	kbuf []byte

	// roots maps BFS root node ids to their corrupted seeds (stabilize
	// mode only; nil otherwise — clean mode has the single root 0).
	roots map[int32]stabilize.Corruption

	violation *foundViolation
}

// visit dedups a successor, records the edge, and enqueues fresh nodes.
func (e *explorer) visit(ns *config, from int32, mv move) (int32, bool) {
	e.keyOf(ns, mv.kind)
	id, fresh := e.seen.insert(ns)
	if fresh {
		ns.id = id
		e.queue.push(ns)
		e.parents.push(parentEdge{parent: from, kind: mv.kind, pkt: e.pkts.intern(mv.pkt)})
	} else {
		e.release(ns)
	}
	if from >= 0 {
		e.edge(from, id)
	}
	return id, fresh
}

// edge records an explored transition between two visited nodes. A
// progress edge — one that raises the delivery count, or in stabilize mode
// the clean frontier (corrupted runs also deliver garbage and duplicates,
// which are not progress) — only marks its source as able to progress: the
// DL3 analysis seeds its reverse reachability there and never walks the
// edge itself. A self-loop changes no node's reachability. So only the
// other edges are kept, and every edge is counted for Report.Edges.
func (e *explorer) edge(from, to int32) {
	e.nedges++
	fk, tk := e.keys.at(from), e.keys.at(to)
	progress := tk.del > fk.del
	if e.cfg.Stabilize {
		progress = tk.gfro > fk.gfro
	}
	switch {
	case progress:
		e.progress.add(from)
	case from != to:
		e.edges.push(edgeRec{from: from, to: to})
	}
}

// collect drains the receiver's freshly delivered payloads into the
// configuration's counters. In clean mode it checks DL1 correspondence per
// delivery: the i-th delivered payload must be payload(i) of a submitted
// message. In stabilize mode each delivery is instead classified by the
// amnesty judge (stabilize.Classify) — progress, skip, late (DL2: FIFO
// order broken on the fly), duplicate or garbage — and the faults are
// charged against the seed's remaining budget; the violation fires only on
// overdraft. It reports whether the configuration is violation-free.
func (e *explorer) collect(ns *config, from int32, mv move) bool {
	for _, p := range ns.r.TakeDelivered() {
		if e.cfg.Stabilize {
			kind, charge, nf, nl := stabilize.Classify(p, payload, int(ns.frontier), ns.lost, int(ns.submitted))
			ns.frontier, ns.lost = int32(nf), nl
			ns.remaining -= int32(charge)
			if ns.remaining < 0 {
				e.violation = &foundViolation{parent: from, mv: mv, detail: fmt.Sprintf(
					"%s delivery of %q exceeds the corrupted start's amnesty (%s)",
					kind, p, kind.Property())}
				return false
			}
			ns.delivered++
			continue
		}
		idx := int(ns.delivered)
		switch {
		case idx >= int(ns.submitted):
			e.violation = &foundViolation{parent: from, mv: mv, detail: fmt.Sprintf(
				"delivery %d with only %d message(s) submitted", idx, ns.submitted)}
			return false
		case p != payload(idx):
			e.violation = &foundViolation{parent: from, mv: mv, detail: fmt.Sprintf(
				"delivery %d carries %q, want %q", idx, p, payload(idx))}
			return false
		}
		ns.delivered++
	}
	return true
}

// drainAcks forwards the receiver's pending acknowledgements to the r→t
// channel, dropping at send beyond the occupancy cap. The send-then-drop
// shape (rather than the audit's skip-the-send) mirrors sim.Runner.DrainAcks
// exactly, so a witness re-drive reproduces the same channel state.
func (e *explorer) drainAcks(ns *config) {
	for {
		a, ok := ns.r.NextPkt()
		if !ok {
			return
		}
		ns.chAck.Send(a)
		if ns.chAck.InTransit() > e.cfg.Occupancy {
			_ = ns.chAck.Drop(a)
		}
	}
}

// expand fans a configuration out over the transition alphabet.
func (e *explorer) expand(s *config) {
	L := e.cfg.Occupancy

	// submit: hand the transmitter the next positional message, only when
	// it is idle and the message bound has room.
	if !s.t.Busy() && int(s.submitted) < e.cfg.MaxMessages {
		ns := e.cloneOf(s, mvSubmit)
		ns.t.SendMsg(payload(int(ns.submitted)))
		ns.submitted++
		e.visit(ns, s.id, move{kind: mvSubmit})
	}

	// transmit: one send_pkt^{t→r}, if enabled. Below cap the packet is
	// delayed in transit; at cap it is dropped at send, which is the only
	// way to let the transmitter keep stepping against a full channel.
	{
		ns := e.cloneOf(s, mvTransmit)
		if pkt, ok := ns.t.NextPkt(); ok {
			ns.chData.Send(pkt)
			if s.chData.InTransit() < L {
				e.visit(ns, s.id, move{kind: mvTransmit})
			} else {
				_ = ns.chData.Drop(pkt)
				e.visit(ns, s.id, move{kind: mvTransmitDrop})
			}
		} else {
			e.release(ns)
		}
	}

	// deliver-data: each distinct in-transit data packet, removed from the
	// channel before the receiver sees it (genie snapshots observe the
	// post-delivery transit), DL1-checked per delivery, acks drained.
	for i, n := 0, s.chData.DistinctPackets(); i < n; i++ {
		pkt := s.chData.PacketAt(i)
		ns := e.cloneOf(s, mvDeliverData)
		if ns.chData.Deliver(pkt) != nil {
			e.release(ns)
			continue
		}
		mv := move{kind: mvDeliverData, pkt: pkt}
		ns.r.DeliverPkt(pkt)
		if !e.collect(ns, s.id, mv) {
			return
		}
		e.drainAcks(ns)
		e.visit(ns, s.id, mv)
	}

	// deliver-ack: each distinct in-transit ack packet.
	for i, n := 0, s.chAck.DistinctPackets(); i < n; i++ {
		pkt := s.chAck.PacketAt(i)
		ns := e.cloneOf(s, mvDeliverAck)
		if ns.chAck.Deliver(pkt) != nil {
			e.release(ns)
			continue
		}
		ns.t.DeliverPkt(pkt)
		e.visit(ns, s.id, move{kind: mvDeliverAck, pkt: pkt})
	}

	// drop: each distinct in-transit packet, on either channel. Under the
	// lazy-drop reduction, drops are explored only at cap — where they are
	// needed to unblock a send; see DESIGN.md §12 for why postponing them
	// preserves endpoint-observable reachability for genie-free protocols.
	if !e.por || s.chData.InTransit() >= L {
		for i, n := 0, s.chData.DistinctPackets(); i < n; i++ {
			pkt := s.chData.PacketAt(i)
			ns := e.cloneOf(s, mvDropData)
			if ns.chData.Drop(pkt) == nil {
				e.visit(ns, s.id, move{kind: mvDropData, pkt: pkt})
			} else {
				e.release(ns)
			}
		}
	}
	if !e.por || s.chAck.InTransit() >= L {
		for i, n := 0, s.chAck.DistinctPackets(); i < n; i++ {
			pkt := s.chAck.PacketAt(i)
			ns := e.cloneOf(s, mvDropAck)
			if ns.chAck.Drop(pkt) == nil {
				e.visit(ns, s.id, move{kind: mvDropAck, pkt: pkt})
			} else {
				e.release(ns)
			}
		}
	}
}
