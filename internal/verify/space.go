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

// components is one kind of key component: transmitter control keys,
// receiver control keys or channel contents, interned to dense ids, with
// the object that first rendered each id. Kinds do not share ids, since a
// transmitter and a receiver may render the same bytes. An object is never
// stepped: a move clones it, steps the clone and interns the clone's key
// (see stepT, stepR and stepCh). Equal control keys are the bisimulation
// the visited set already relies on (protocol.ControlKeyer), so the first
// object of a key steps for every object of it.
type components[T any] struct {
	tab  *intern.Local
	objs []T
}

// intern returns the id of key, keeping obj as its object when the key is
// new, and whether it was.
func (c *components[T]) intern(key []byte, obj T) (uint32, bool) {
	if c.tab == nil {
		c.tab = intern.NewLocal()
	}
	id := c.tab.InternBytes(key)
	if int(id) < len(c.objs) {
		return id, false
	}
	c.objs = append(c.objs, obj)
	return id, true
}

// chanObj is a channel component: its contents, and its distinct packets as
// packet ids in the channel's order, which expand fans out over.
type chanObj struct {
	ch   *channel.NonFIFO
	pkts []uint32
}

// stepKey is what an endpoint step reads: the endpoint's id, the move kind,
// the move's argument (the submit index or the packet's id) and, for an
// endpoint that consults a genie, the id of the channel contents its genie
// reads (0 otherwise).
type stepKey struct {
	kind           moveKind
	id, arg, genie uint32
}

// stepOut is a memoised endpoint step: the successor endpoint's id and what
// the step put out — a transmit's packet and whether one was enabled, a data
// delivery's delivered payloads and drained acks.
type stepOut struct {
	id, pkt  uint32
	ok       bool
	payloads []string
	acks     []uint32
}

// chStep is a channel step: one copy of a packet sent into the channel, or
// removed from it (a delivery or a drop).
type chStep struct {
	id, pkt uint32
	send    bool
}

// internEnd interns an endpoint into its kind by its control key and
// returns its id.
func internEnd[T interface{ AppendStateKey([]byte) []byte }](e *explorer, c *components[T], end T) uint32 {
	e.kbuf = protocol.AppendControlKey(e.kbuf[:0], end)
	id, _ := c.intern(e.kbuf, end)
	return id
}

// internCh interns a channel by its contents and returns its id.
func (e *explorer) internCh(ch *channel.NonFIFO) uint32 {
	e.kbuf = ch.AppendKey(e.kbuf[:0])
	id, fresh := e.chs.intern(e.kbuf, chanObj{ch: ch})
	if fresh {
		o := &e.chs.objs[id]
		for i := 0; i < ch.DistinctPackets(); i++ {
			o.pkts = append(o.pkts, e.pkts.intern(ch.PacketAt(i)))
		}
	}
	return id
}

// stepT steps transmitter id by a move of kind mvSubmit (arg is the submit
// index), mvTransmit or mvDeliverAck (arg is the packet's id), with its
// genie reading ack channel ack. The result is memoised.
func (e *explorer) stepT(kind moveKind, id, arg, ack uint32) stepOut {
	t := e.ts.objs[id]
	if _, ok := t.(protocol.AckGenieUser); !ok {
		ack = 0
	}
	k := stepKey{kind: kind, id: id, arg: arg, genie: ack}
	out, ok := e.memo[k]
	if ok {
		return out
	}
	t = t.Clone()
	protocol.BindGenies(t, nil, nil, e.chs.objs[ack].ch)
	switch kind {
	case mvSubmit:
		t.SendMsg(protocol.Payload(int(arg)))
	case mvTransmit:
		var p ioa.Packet
		p, out.ok = t.NextPkt()
		out.pkt = e.pkts.intern(p)
	case mvDeliverAck:
		t.DeliverPkt(e.pkts.at(arg))
	}
	out.id = internEnd(e, &e.ts, t)
	e.memo[k] = out
	return out
}

// stepR delivers packet pkt to receiver id, with its genie reading data
// channel data (the delivered copy already removed, as the runner shows it),
// takes the delivered payloads and drains the acks. The result is memoised.
func (e *explorer) stepR(id, pkt, data uint32) stepOut {
	r := e.rs.objs[id]
	if _, ok := r.(protocol.DataGenieUser); !ok {
		data = 0
	}
	k := stepKey{kind: mvDeliverData, id: id, arg: pkt, genie: data}
	out, ok := e.memo[k]
	if ok {
		return out
	}
	r = r.Clone()
	protocol.BindGenies(nil, r, e.chs.objs[data].ch, nil)
	r.DeliverPkt(e.pkts.at(pkt))
	// The memo keeps the receiver's own delivered slice, which its next
	// DeliverPkt, Reset or TakeDelivered would overwrite. None comes: r is
	// interned below or dropped, an interned receiver is never stepped
	// (every step, this one included, clones it first), and a clone shares
	// none of its storage.
	out.payloads = r.TakeDelivered()
	for {
		a, ok := r.NextPkt()
		if !ok {
			break
		}
		out.acks = append(out.acks, e.pkts.intern(a))
	}
	out.id = internEnd(e, &e.rs, r)
	e.memo[k] = out
	return out
}

// stepCh returns the channel that sending one copy of packet pkt into
// channel id, or removing one from it, leaves. The result is memoised.
func (e *explorer) stepCh(id, pkt uint32, send bool) uint32 {
	k := chStep{id: id, pkt: pkt, send: send}
	if out, ok := e.chMemo[k]; ok {
		return out
	}
	ch := e.chs.objs[id].ch.Clone()
	if send {
		ch.Send(e.pkts.at(pkt))
	} else {
		_ = ch.Drop(e.pkts.at(pkt)) // pkt is one of the channel's packets
	}
	out := e.internCh(ch)
	e.chMemo[k] = out
	return out
}

// render returns the canonical key of k: its four components' interned
// bytes joined by '|', then the counters and, in stabilize mode, the
// amnesty bookkeeping (clean-mode keys omit it, so space hashes stay
// comparable across versions). The bytes alias e.kbuf and are valid until
// the next render or intern.
func (e *explorer) render(k intKey) []byte {
	b := append(e.kbuf[:0], e.ts.tab.Resolve(k.tc)...)
	b = append(b, '|')
	b = append(b, e.rs.tab.Resolve(k.rc)...)
	b = append(b, '|')
	b = append(b, e.chs.tab.Resolve(k.dk)...)
	b = append(b, '|')
	b = append(b, e.chs.tab.Resolve(k.ak)...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.sub), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.del), 10)
	if e.cfg.Stabilize {
		b = append(b, "|g"...)
		b = strconv.AppendInt(b, int64(k.grem), 10)
		b = append(b, "|f"...)
		b = strconv.AppendInt(b, int64(k.gfro), 10)
		b = append(b, "|l"...)
		b = strconv.AppendUint(b, k.lost, 16)
	}
	e.kbuf = b
	return b
}

// parentEdge records how a configuration was first reached, for witness
// path reconstruction. The move's packet rides as an interned id (pktIntern)
// rather than an ioa.Packet: the table is one entry per visited state, and
// two inline string headers per entry would multiply its footprint.
type parentEdge struct {
	parent int32
	kind   moveKind
	pkt    uint32 // interned via explorer.pkts; 0 is the zero packet
}

// pktIntern interns ioa.Packets to dense ids, reversibly (the memoised
// steps and witness reconstruction need the packet back). Id 0 is the zero
// packet, so packet-less moves pack to the zero parentEdge fields.
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
	parentEdge
	detail string
}

// chunkLen is the element count of one chunk of a chunked log.
const chunkLen = 1 << 12

// chunked is an append-only log kept in fixed-size chunks, for the
// exploration's per-node and per-edge records, which run to millions. A
// slice grown by append copies itself at every growth step, and past small
// sizes it grows by 1.25×, so a slice that reaches n elements allocates
// about 5n in total; a chunk is allocated once and never copied.
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
// packed key in keys, how it was first reached in parents, and whether it
// has a progress edge out in progress. A key is the whole configuration:
// expand builds a node's successors from its key alone. The key log doubles
// as the node record the DL3 analysis reads (submitted, delivered and, in
// stabilize mode, the clean frontier; gfro is 0 in clean mode), and its
// length is the number of visited configurations, so the BFS expands ids
// in order until it reaches the log's end.
type explorer struct {
	cfg   Config
	proto protocol.Protocol
	por   bool

	seen    store
	keys    chunked[intKey] // packed keys by id, appended by seen
	parents chunked[parentEdge]

	// The explored graph, as much of it as the DL3 analysis needs: nedges
	// counts every edge, progress marks the sources of progress edges, and
	// edges keeps the rest, less self-loops.
	nedges   int
	progress bitset
	edges    chunked[edgeRec]

	// The key components and the memoised steps over them: memo holds the
	// endpoint steps, chMemo the channel steps. pkts interns packets, and
	// kbuf is the scratch buffer keys are rendered into.
	ts     components[protocol.Transmitter]
	rs     components[protocol.Receiver]
	chs    components[chanObj]
	memo   map[stepKey]stepOut
	chMemo map[chStep]uint32
	pkts   *pktIntern
	kbuf   []byte

	// roots maps BFS root node ids to their seeds: the corrupted seeds in
	// stabilize mode, the clean seed of the single root 0 otherwise.
	roots map[int32]stabilize.Corruption

	violation *foundViolation
}

// visit dedups a successor and records its edge, and its parent edge when
// it is fresh. A root's parent is -1.
func (e *explorer) visit(k intKey, pe parentEdge) (int32, bool) {
	id, fresh := e.seen.insert(k)
	if fresh {
		e.parents.push(pe)
	}
	if pe.parent >= 0 {
		e.edge(pe.parent, id)
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

// collect counts a delivery's payloads into the successor key ns. In clean
// mode it checks DL1 correspondence per delivery: the i-th delivered payload
// must be protocol.Payload(i) of a submitted message. In stabilize mode each
// delivery is instead classified by the amnesty judge (stabilize.Classify) —
// progress, skip, late (DL2: FIFO order broken on the fly), duplicate or
// garbage — and the faults are charged against the seed's remaining budget;
// the violation fires only on overdraft. It reports whether the successor is
// violation-free.
func (e *explorer) collect(ns *intKey, payloads []string, pe parentEdge) bool {
	for _, p := range payloads {
		if e.cfg.Stabilize {
			kind, charge, nf, nl := stabilize.Classify(p, protocol.Payload, int(ns.gfro), ns.lost, int(ns.sub))
			ns.gfro, ns.lost = int32(nf), nl
			ns.grem -= int32(charge)
			if ns.grem < 0 {
				e.violation = &foundViolation{pe, fmt.Sprintf(
					"%s delivery of %q exceeds the corrupted start's amnesty (%s)",
					kind, p, kind.Property())}
				return false
			}
			ns.del++
			continue
		}
		idx := int(ns.del)
		switch {
		case idx >= int(ns.sub):
			e.violation = &foundViolation{pe, fmt.Sprintf(
				"delivery %d with only %d message(s) submitted", idx, ns.sub)}
			return false
		case p != protocol.Payload(idx):
			e.violation = &foundViolation{pe, fmt.Sprintf(
				"delivery %d carries %q, want %q", idx, p, protocol.Payload(idx))}
			return false
		}
		ns.del++
	}
	return true
}

// expand fans node id out over the transition alphabet. Each successor is
// the node's key with the ids of the components its move steps swapped for
// the memoised results.
func (e *explorer) expand(id int32) {
	L := e.cfg.Occupancy
	k := e.keys.at(id)
	data, ack := e.chs.objs[k.dk], e.chs.objs[k.ak]

	// submit: hand the transmitter the next positional message, only when
	// it is idle and the message bound has room.
	if !e.ts.objs[k.tc].Busy() && int(k.sub) < e.cfg.MaxMessages {
		ns := k
		ns.tc = e.stepT(mvSubmit, k.tc, uint32(k.sub), k.ak).id
		ns.sub++
		e.visit(ns, parentEdge{parent: id, kind: mvSubmit})
	}

	// transmit: one send_pkt^{t→r}, if enabled. Below cap the packet is
	// delayed in transit; at cap it is dropped at send, which is the only
	// way to let the transmitter keep stepping against a full channel.
	if out := e.stepT(mvTransmit, k.tc, 0, k.ak); out.ok {
		ns := k
		ns.tc = out.id
		if data.ch.InTransit() < L {
			ns.dk = e.stepCh(k.dk, out.pkt, true)
			e.visit(ns, parentEdge{parent: id, kind: mvTransmit})
		} else {
			e.visit(ns, parentEdge{parent: id, kind: mvTransmitDrop})
		}
	}

	// deliver-data: each distinct in-transit data packet, removed from the
	// channel before the receiver sees it (genie snapshots observe the
	// post-delivery transit), DL1-checked per delivery. The receiver's
	// acknowledgements then drain into the ack channel while it holds fewer
	// than L; the rest are dropped at send.
	for _, p := range data.pkts {
		ns := k
		ns.dk = e.stepCh(k.dk, p, false)
		out := e.stepR(k.rc, p, ns.dk)
		ns.rc = out.id
		pe := parentEdge{parent: id, kind: mvDeliverData, pkt: p}
		if !e.collect(&ns, out.payloads, pe) {
			return
		}
		for _, a := range out.acks {
			if e.chs.objs[ns.ak].ch.InTransit() < L {
				ns.ak = e.stepCh(ns.ak, a, true)
			}
		}
		e.visit(ns, pe)
	}

	// deliver-ack: each distinct in-transit ack packet, removed before the
	// transmitter sees it.
	for _, p := range ack.pkts {
		ns := k
		ns.ak = e.stepCh(k.ak, p, false)
		ns.tc = e.stepT(mvDeliverAck, k.tc, p, ns.ak).id
		e.visit(ns, parentEdge{parent: id, kind: mvDeliverAck, pkt: p})
	}

	// drop: each distinct in-transit packet, on either channel. Under the
	// lazy-drop reduction, drops are explored only at cap — where they are
	// needed to unblock a send; see DESIGN.md §12 for why postponing them
	// preserves endpoint-observable reachability for genie-free protocols.
	if !e.por || data.ch.InTransit() >= L {
		for _, p := range data.pkts {
			ns := k
			ns.dk = e.stepCh(k.dk, p, false)
			e.visit(ns, parentEdge{parent: id, kind: mvDropData, pkt: p})
		}
	}
	if !e.por || ack.ch.InTransit() >= L {
		for _, p := range ack.pkts {
			ns := k
			ns.ak = e.stepCh(k.ak, p, false)
			e.visit(ns, parentEdge{parent: id, kind: mvDropAck, pkt: p})
		}
	}
}
