// Package protocol implements data link layer protocols (Mansour &
// Schieber, PODC '89, Section 2.3) as pairs of deterministic, cloneable
// endpoint automata.
//
// Each protocol is a pair (A^t, A^r): a Transmitter automaton at the
// transmitting station and a Receiver automaton at the receiving station.
// The endpoints communicate only through packets handed to the channels by
// the simulation engine (internal/sim) or by an adversary
// (internal/adversary); they expose Clone and AppendStateKey so the
// adversary constructions can branch executions and detect repeated joint
// states, which is how the paper's proofs manipulate executions.
//
// The implemented protocols span the design space the paper discusses:
//
//   - seqnum   — the naive protocol: the i-th message uses the i-th header;
//     n headers for n messages, O(log n) space, O(1) packets per
//     message. The paper's Theorem 3.1 shows its header usage is
//     optimal for any space-bounded protocol.
//   - altbit   — the alternating bit protocol [BSW69]: 4 headers,
//     finite-state, correct over lossy FIFO channels but unsafe
//     over non-FIFO channels (the replay adversary proves it).
//   - cntlinear — an Afek-style counting protocol with a stale-copy genie:
//     Θ(packets-in-transit) packets per message, the tight upper
//     bound shape of Theorem 4.1. See DESIGN.md §2 for the genie
//     substitution argument.
//   - cntexp   — an AFWZ-style pessimistic counting protocol: packet cost
//     grows exponentially in the number of messages even on a
//     perfect channel, matching the paper's description of
//     [AFWZ88].
//   - cheat(d) — cntlinear with its acceptance threshold under-provisioned
//     by d copies; exists to be broken by the replay adversary,
//     demonstrating the Theorem 4.1 mechanism.
package protocol

import (
	"sort"
	"strconv"

	"repro/internal/channel"
	"repro/internal/ioa"
)

// Transmitter is the data link automaton A^t at the transmitting station.
//
// Inputs are SendMsg (from the higher layer) and DeliverPkt (receive_pkt on
// the r→t channel). NextPkt performs one enabled send_pkt^{t→r} output
// action, mutating the automaton state; retransmission is modelled by
// NextPkt remaining enabled while the automaton is Busy.
type Transmitter interface {
	// SendMsg accepts a message from the higher layer. Messages are
	// queued; the protocol works on them in FIFO order.
	SendMsg(payload string)
	// DeliverPkt delivers a packet arriving on the r→t channel.
	DeliverPkt(p ioa.Packet)
	// NextPkt performs one enabled send_pkt^{t→r} action and returns the
	// packet, or ok=false if no output action is currently enabled.
	NextPkt() (ioa.Packet, bool)
	// Busy reports whether the automaton has an accepted message whose
	// delivery it has not yet confirmed, or queued messages.
	Busy() bool
	// Clone returns an independent deep copy.
	Clone() Transmitter
	// Reset returns the automaton to the state New gives it, in place: it
	// keeps its configuration (header counts, modes, thresholds and its
	// genie) and keeps its queues at length 0 with their capacity, so a
	// harness that reruns one protocol (sim.Runner.Reset) builds no new
	// endpoints. Clone deep-copies every queue, so resetting and refilling
	// a clone never reaches its original.
	Reset()
	// AppendStateKey appends a canonical encoding of the automaton state
	// to dst and returns the extended slice. Equal keys mean equal states:
	// the explorers, the fuzzer's coverage and the prover identify states
	// by these bytes. StateKey renders the same bytes as a string.
	AppendStateKey(dst []byte) []byte
	// StateSize returns a proxy for the space used by the automaton
	// state, in abstract units (counter words + queued payload bytes).
	StateSize() int
}

// Receiver is the data link automaton A^r at the receiving station.
type Receiver interface {
	// DeliverPkt delivers a packet arriving on the t→r channel.
	DeliverPkt(p ioa.Packet)
	// NextPkt performs one enabled send_pkt^{r→t} action (an
	// acknowledgement) and returns the packet, or ok=false if none is
	// enabled.
	NextPkt() (ioa.Packet, bool)
	// TakeDelivered drains the payloads of messages delivered to the
	// higher layer (receive_msg actions) since the previous call. The
	// slice is the receiver's own: it is valid until the receiver's next
	// DeliverPkt, Reset or TakeDelivered, which reuse its storage, so a
	// caller that keeps the payloads longer copies them.
	TakeDelivered() []string
	// Clone returns an independent deep copy.
	Clone() Receiver
	// Reset returns the automaton to the state New gives it, in place, as
	// for Transmitter. A receiver that snapshots its genie at construction
	// snapshots it again, so a harness resets the channels first.
	Reset()
	// AppendStateKey appends a canonical encoding of the automaton state
	// to dst, as for Transmitter.
	AppendStateKey(dst []byte) []byte
	// StateSize returns a proxy for the space used by the automaton state.
	StateSize() int
}

// Protocol describes a data link protocol and constructs endpoint pairs.
type Protocol interface {
	// Name returns the protocol's registry name.
	Name() string
	// HeaderBound returns the size of the protocol's static packet
	// alphabet. bounded is false when the alphabet grows with the number
	// of messages (as for seqnum).
	HeaderBound() (k int, bounded bool)
	// New constructs a fresh endpoint pair. dataGenie reports stale
	// in-transit copies on the t→r channel (used by counting receivers);
	// ackGenie reports stale copies on the r→t channel (used by counting
	// transmitters). Protocols that need no oracle ignore them; passing
	// channel.NoGenie{} is always allowed.
	New(dataGenie, ackGenie channel.Genie) (Transmitter, Receiver)
}

// Bounds declares a protocol's expected state-complexity envelope. The
// static boundness auditor (internal/analyze, `nfvet audit`) enumerates the
// joint control states reachable under bounded channel occupancy and checks
// the observation against this declaration: a protocol declared
// StateBounded whose enumeration exceeds the state budget fails the audit,
// as does one declared unbounded whose reachable control space turns out
// finite (the declaration would be understating the protocol, and with it
// the paper's Theorem 2.1 pumping argument would apply after all).
type Bounds struct {
	// StateBounded declares whether the joint control-state space
	// (q_t, q_r) reachable under bounded channel occupancy is finite.
	StateBounded bool
	// KT and KR, when nonzero, are ceilings on the distinct transmitter
	// and receiver control states the audit may observe — the k_t and k_r
	// of Theorem 2.1's k_t·k_r execution-length bound. Zero means
	// "bounded, but no exact ceiling declared".
	KT, KR int
	// Headers, when nonzero, is a ceiling on the distinct packet headers
	// the audit may observe in transit. For protocols with a bounded
	// HeaderBound the audit additionally checks Headers against it
	// (Theorem 3.1/4.1 precondition: a fixed h-letter alphabet).
	Headers int
}

// Bounded is an optional Protocol extension declaring the expected bounds
// for the static auditor. Protocols that do not implement it are audited
// with no declaration to check against (observations are reported only).
type Bounded interface {
	Bounds() Bounds
}

// DLStatus is an optional Protocol extension declaring the protocol's
// expected data-link verdict over non-FIFO channels, checked by the
// bounded reachability verifier (internal/verify, `nfvet verify`). It is
// the safety analogue of Bounds: where Bounds declares the control-space
// envelope the audit enumerates, DLStatus declares whether exhaustive
// exploration of that space is expected to find a DL violation at all.
type DLStatus interface {
	// AttackBounds returns the smallest (per-channel occupancy cap,
	// message count) at which a DL1/DL3 violation is expected to be
	// reachable. (0, 0) declares the protocol DL-sound at every occupancy:
	// the verifier FAILs the protocol if it finds a counterexample.
	// Nonzero bounds declare the protocol attackable: the verifier FAILs
	// the protocol if it exhausts a space at least that large without
	// finding the violation.
	AttackBounds() (occupancy, messages int)
}

// CorruptionSpace enumerates the bounded corrupted initial configurations of
// a protocol: alternative endpoint start states and channel pre-contents the
// self-stabilization tooling (internal/stabilize, `nfvet stabilize`,
// `nffuzz -corrupt`, `nfvet verify -stabilize`) injects before time 0. The
// space is a cross product: any listed transmitter × any listed receiver ×
// any multiset (up to the occupancy bound) of poison packets per channel.
type CorruptionSpace struct {
	// Transmitters are the corrupted transmitter start states. Index 0 MUST
	// be the clean initial state; the slice must be non-empty. Entries are
	// templates: injection clones them, so one space can seed many runs.
	Transmitters []Transmitter
	// Receivers are the corrupted receiver start states, same conventions.
	Receivers []Receiver
	// DataPoison and AckPoison are the alphabets of packets an adversary may
	// pre-load onto the t→r and r→t channels ("in transit since before time
	// 0"). The enumeration places multisets over these alphabets up to the
	// channel occupancy bound.
	DataPoison []ioa.Packet
	AckPoison  []ioa.Packet
}

// Corruptible is an optional Protocol extension declaring the protocol's
// bounded corruption space, making it a subject for arbitrary-start
// convergence checking. Corrupted endpoint states must satisfy the same
// AppendStateKey/Clone contracts as clean ones, so corrupted configurations
// get canonical keys and intern into the existing coverage and visited maps.
type Corruptible interface {
	Corruptions() CorruptionSpace
}

// StabilizeStatus is an optional Protocol extension declaring whether the
// protocol is expected to self-stabilize: to recover DL1–DL3, up to finitely
// many initial faults, from every configuration in its corruption space. It
// is the convergence analogue of DLStatus — `nfvet verify -stabilize` FAILs
// a declared-stabilizing protocol it finds a divergence witness for, and
// FAILs a declared-non-stabilizing protocol whose bounded corrupted space is
// exhausted divergence-free.
type StabilizeStatus interface {
	SelfStabilizing() bool
}

// ControlKeyer is an optional endpoint extension rendering the *control
// state* key: the state key quotiented by bookkeeping that grows without
// bound but never influences behavior — a phase counter the automaton only
// reads modulo k, or metrics counters. The boundness auditor enumerates
// control keys, so an implementation carries a proof obligation (a
// bisimulation): two endpoint states with equal control keys must produce
// identical observable behavior, and control-key-equal successors, under
// every input.
type ControlKeyer interface {
	AppendControlKey(dst []byte) []byte
}

// StateKey renders the endpoint's state key as a string, for maps and
// reports; hot loops append into a reused buffer instead.
func StateKey(endpoint interface{ AppendStateKey([]byte) []byte }) string {
	return string(endpoint.AppendStateKey(make([]byte, 0, 96)))
}

// AppendControlKey appends the endpoint's control key to dst, falling back
// to its state key for endpoints without a declared quotient.
func AppendControlKey(dst []byte, endpoint interface{ AppendStateKey([]byte) []byte }) []byte {
	if ck, ok := endpoint.(ControlKeyer); ok {
		return ck.AppendControlKey(dst)
	}
	return endpoint.AppendStateKey(dst)
}

// AckGenieUser is implemented by transmitters that consult a stale-copy
// oracle for the r→t channel. When an endpoint is cloned into a forked
// execution (sim.Runner.Fork), the harness rebinds the genie to the forked
// channel through this hook; the endpoints only read the genie at phase
// starts, so rebinding between phases is safe.
//
// An endpoint reads its genie only while it steps, inside SendMsg and
// DeliverPkt (and at construction), never while rendering its keys,
// reporting Busy or cloning. The prover relies on it: its explorer keeps
// one endpoint per control key, never stepped, and steps clones whose
// genie it binds to the channel contents of the step, so a kept endpoint's
// own binding is never read (internal/verify's stepT and stepR).
// TestContractAppendKeys pins it.
type AckGenieUser interface {
	SetAckGenie(g channel.Genie)
}

// DataGenieUser is the receiver-side analogue of AckGenieUser, for the t→r
// channel oracle, under the same rule: the genie is read only while the
// receiver steps, inside DeliverPkt (and at construction).
type DataGenieUser interface {
	SetDataGenie(g channel.Genie)
}

// BindGenies points the transmitter's ack genie at ack and the receiver's
// data genie at data, for whichever of the two consult one; a nil endpoint
// is skipped. Every harness that copies endpoints onto fresh channels
// (forks, clones, corrupted starts) calls it; the copies still read the
// original channels otherwise.
func BindGenies(t Transmitter, r Receiver, data, ack *channel.NonFIFO) {
	if u, ok := t.(AckGenieUser); ok {
		u.SetAckGenie(channel.ChannelGenie{Ch: ack})
	}
	if u, ok := r.(DataGenieUser); ok {
		u.SetDataGenie(channel.ChannelGenie{Ch: data})
	}
}

// Registry returns all built-in protocols keyed by name. The cheat variants
// are included with their default under-provisioning d=1.
func Registry() map[string]Protocol {
	ps := []Protocol{
		NewSeqNum(),
		NewAltBit(),
		NewCntLinear(),
		NewCntExp(),
		NewCntK(4),
		NewCheat(1),
		NewStabDL(2),
		NewStabNaive(),
	}
	m := make(map[string]Protocol, len(ps))
	for _, p := range ps {
		m[p.Name()] = p
	}
	return m
}

// Names returns the registry names in sorted order.
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

// keyBuf assembles state keys by direct append. The key renderers sit on
// the hot path of the adversary search, the fuzzer's coverage signal (two
// renders per simulator operation) and the prover, and fmt.Sprintf
// dominated those CPU profiles; the append methods render the same bytes
// as the %d/%t/%q/%s verbs without reflection. Verb names mirror fmt's. The
// builder is a by-value chain so keyTo-rooted chains stay on the stack: the
// Append*Key endpoint methods render into caller scratch buffers with zero
// allocations.
type keyBuf struct{ buf []byte }

// keyTo roots a chain in a caller-provided buffer.
func keyTo(dst []byte, prefix string) keyBuf { return keyBuf{buf: append(dst, prefix...)} }

func (k keyBuf) s(s string) keyBuf { k.buf = append(k.buf, s...); return k }
func (k keyBuf) d(n int) keyBuf    { k.buf = strconv.AppendInt(k.buf, int64(n), 10); return k }
func (k keyBuf) t(v bool) keyBuf   { k.buf = strconv.AppendBool(k.buf, v); return k }
func (k keyBuf) q(s string) keyBuf { k.buf = strconv.AppendQuote(k.buf, s); return k }

// pair renders a [2]int the way %v does: "[a b]".
func (k keyBuf) pair(a [2]int) keyBuf {
	return k.s("[").d(a[0]).s(" ").d(a[1]).s("]")
}

// queue renders a payload queue as its "|"-joined elements.
func (k keyBuf) queue(q []string) keyBuf {
	for i, s := range q {
		if i > 0 {
			k = k.s("|")
		}
		k = k.s(s)
	}
	return k
}

func (k keyBuf) bytes() []byte { return k.buf }

// payloadCounts is a deterministic multiset of per-payload receipt counts:
// a sorted assoc slice, so that rendering it into a state key needs no
// collect-then-sort pass and no map iteration. The counting receivers keep
// one entry per distinct payload seen in the current phase; entries reset
// with the phase (assign nil).
type payloadCounts []payloadCount

type payloadCount struct {
	payload string
	n       int
}

// inc bumps the count for payload, keeping the slice sorted, and returns
// the new count.
func (pc *payloadCounts) inc(payload string) int {
	s := *pc
	i := sort.Search(len(s), func(i int) bool { return s[i].payload >= payload })
	if i < len(s) && s[i].payload == payload {
		s[i].n++
		return s[i].n
	}
	s = append(s, payloadCount{})
	copy(s[i+1:], s[i:])
	s[i] = payloadCount{payload: payload, n: 1}
	*pc = s
	return 1
}

// clone deep-copies the counts.
func (pc payloadCounts) clone() payloadCounts {
	if len(pc) == 0 {
		return nil
	}
	out := make(payloadCounts, len(pc))
	copy(out, pc)
	return out
}

// payloads renders the counts as "p=n;" runs (already sorted).
func (k keyBuf) payloads(pc payloadCounts) keyBuf {
	for _, e := range pc {
		k = k.s(e.payload).s("=").d(e.n).s(";")
	}
	return k
}

// queueBytes is a space proxy for queued payloads.
func queueBytes(q []string) int {
	n := 0
	for _, s := range q {
		n += len(s)
	}
	return n
}

// cloneQueue deep-copies a payload queue.
func cloneQueue(q []string) []string {
	if len(q) == 0 {
		return nil
	}
	out := make([]string, len(q))
	copy(out, q)
	return out
}

// popFront removes the head of queue *q and shifts the rest down in place,
// so a queue keeps its capacity across pops: a q[1:] pop strands the head
// slot and makes the next append reallocate. Every Clone deep-copies its
// queues, so the shift never reaches a clone.
func popFront[E any](q *[]E) E {
	s := *q
	head := s[0]
	n := copy(s, s[1:])
	var zero E
	s[n] = zero
	*q = s[:n]
	return head
}

// takeDelivered returns *delivered and keeps its storage at length 0 for
// the receiver's next deliveries (Receiver.TakeDelivered).
func takeDelivered(delivered *[]string) []string {
	out := *delivered
	*delivered = out[:0]
	return out
}

// headerTable holds the headers prefix+"0" to prefix+"63", so the protocols
// that number their headers build no string for the first 64 numbers. It
// is read-only after init.
type headerTable struct {
	prefix string
	first  [64]string
}

func newHeaderTable(prefix string) *headerTable {
	t := &headerTable{prefix: prefix}
	for i := range t.first {
		t.first[i] = prefix + strconv.Itoa(i)
	}
	return t
}

// at returns the header numbered n.
func (t *headerTable) at(n int) string {
	if n >= 0 && n < len(t.first) {
		return t.first[n]
	}
	return t.prefix + strconv.Itoa(n)
}

// payloads holds the positional message payloads "m<i>".
var payloads = newHeaderTable("m")

// Payload returns "m<i>", the payload of the i-th message the fuzzer, the
// prover and the stabilization sweep submit; the first 64 come from a
// read-only table, so submitting them builds no string.
func Payload(i int) string { return payloads.at(i) }
