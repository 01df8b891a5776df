// Package sim drives a data link protocol over a pair of non-FIFO physical
// channels and records the resulting execution.
//
// The runner owns all scheduling: it alternates transmitter output steps
// with receiver acknowledgement drains, consults a channel.Policy for the
// fate of every sent packet, and assigns the bookkeeping message IDs used
// by the ioa trace checkers. Everything is deterministic given the
// protocol, the policies and their seeds.
//
// Adversaries (internal/adversary) reuse the runner's step-level API —
// SubmitMsg, StepTransmit, DrainAcks, DeliverStale — to construct the
// executions of the paper's proofs, instead of the message-level Run loop.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// ErrStalled is wrapped by run errors when the protocol stops making
// progress within the configured step budget: an operational liveness (DL3)
// failure.
var ErrStalled = errors.New("protocol stalled: liveness budget exhausted")

// Config describes one simulation.
type Config struct {
	// Protocol selects the data link protocol to run.
	Protocol protocol.Protocol
	// DataPolicy decides the fate of packets on the t→r channel.
	// Defaults to channel.Reliable().
	DataPolicy channel.Policy
	// AckPolicy decides the fate of packets on the r→t channel.
	// Defaults to channel.Reliable().
	AckPolicy channel.Policy
	// StepBudget bounds the number of transmitter steps per message; when
	// exhausted the run fails with ErrStalled. Defaults to 1 << 20.
	StepBudget int
	// Payload generates the i-th message payload. Defaults to "msg-<i>".
	// Experiments that use the paper's "all messages are the same"
	// convention supply a constant function.
	Payload func(i int) string
	// RecordTrace enables full trace recording. Metric counters are
	// collected either way; traces are needed for checking and
	// certificates but dominate memory on long runs.
	RecordTrace bool
	// Monitor, when non-nil, observes the externally visible actions in
	// order, receiving exactly the event stream RecordTrace would record.
	// The interned fuzz core judges runs through an ioa.LiveChecker monitor
	// instead of a post-hoc trace scan. Monitors do not follow Fork: a fork
	// is a speculative branch, and feeding it to the same monitor would
	// interleave two executions into one stream.
	Monitor ioa.Monitor
	// TraceLog, when non-nil, receives a deterministic-replay event log of
	// the run: every driver operation (submit, transmit, drain, stale
	// delivery), every externally visible action, and every channel-policy
	// decision. The channel policies are transparently wrapped so their
	// verdicts are captured; internal/replay re-drives a runner from such a
	// log bit for bit. The runner stamps the log's protocol metadata if it
	// is unset.
	TraceLog *trace.Log
}

func (c Config) withDefaults() Config {
	if c.DataPolicy == nil {
		c.DataPolicy = channel.Reliable()
	}
	if c.AckPolicy == nil {
		c.AckPolicy = channel.Reliable()
	}
	if c.StepBudget == 0 {
		c.StepBudget = 1 << 20
	}
	if c.Payload == nil {
		c.Payload = func(i int) string { return "msg-" + strconv.Itoa(i) }
	}
	return c
}

// Metrics aggregates the resource measurements of a run — the paper's three
// efficiency parameters (packets, headers, space) plus channel occupancy.
type Metrics struct {
	// DataPacketsPerMessage is the number of send_pkt^{t→r} actions
	// attributed to each message, in order. Sends are attributed to the
	// most recently submitted message; when several messages are
	// submitted before running to idle (windowed transports), the
	// attribution is to the batch's last message — use TotalDataPackets
	// for cross-message aggregates in that case.
	DataPacketsPerMessage []int
	// TotalDataPackets is the total send_pkt^{t→r} count.
	TotalDataPackets int
	// TotalAckPackets is the total send_pkt^{r→t} count.
	TotalAckPackets int
	// HeadersUsed is the number of distinct packet headers sent on either
	// channel — the paper's header metric.
	HeadersUsed int
	// MaxInTransitData is the peak t→r channel occupancy.
	MaxInTransitData int
	// MaxStateSize is the peak combined endpoint state size (the paper's
	// space/boundness parameter, measured through StateSize proxies).
	MaxStateSize int
}

// Result is the outcome of a run.
type Result struct {
	// Trace is the recorded execution (nil unless Config.RecordTrace).
	Trace ioa.Trace
	// Delivered lists the payloads delivered to the higher layer.
	Delivered []string
	// Metrics holds the resource measurements.
	Metrics Metrics
	// Err is non-nil if the run failed (liveness budget exhausted).
	Err error
}

// Runner drives one protocol instance over two non-FIFO channels.
type Runner struct {
	cfg Config

	T protocol.Transmitter
	R protocol.Receiver
	// ChData is the t→r physical channel; ChAck is the r→t channel.
	ChData, ChAck *channel.NonFIFO

	rec  *ioa.Recorder // the recorder while the run records, else nil
	kept *ioa.Recorder // the recorder's storage, kept across unrecorded runs
	mon  ioa.Monitor
	tlog *trace.Log
	// hdrs lists the run's headers in the order it sent them, less each
	// direction's repeats of its own last header (retransmissions), so a
	// header may be listed more than once. Only result reads the distinct
	// count, so a send costs an append at most and Reset a truncation;
	// compactHeaders keeps the list within twice its distinct headers, or
	// 64 while it holds fewer than 32.
	hdrs      []string
	distinct  int                 // len(hdrs) after its last compaction
	seen      map[string]struct{} // compactHeaders' scratch, empty between calls
	lastHdr   [2]string           // per direction (t→r, r→t), its last header
	hdrSent   [2]bool             // per direction, whether lastHdr holds one
	sent      int                 // send_msg counter (message IDs)
	delivered []string
	metrics   Metrics
	curMsg    int // index of the message data packets are attributed to
	ver       uint64
}

// Version reports a counter that advances whenever the joint configuration
// may have changed: on every submit, packet send, packet receive, stale
// drop, corrupted start, poison packet and Reset (so a fresh runner reads
// 1). Between two equal Version() readings the endpoint states
// and channel occupancies are identical, so derived observations (state
// keys, coverage points) can be reused instead of recomputed. This leans on
// the endpoint contract that an unproductive NextPkt mutates nothing
// observable (TestContractIdleNextPktPure); a productive one always routes
// through recordSend.
func (r *Runner) Version() uint64 { return r.ver }

// NewRunner allocates a runner's channels and starts its run with Reset;
// the protocol's genies are wired to the live channels.
func NewRunner(cfg Config) *Runner {
	r := &Runner{
		ChData: channel.NewNonFIFO(ioa.TtoR),
		ChAck:  channel.NewNonFIFO(ioa.RtoT),
	}
	r.Reset(cfg)
	return r
}

// SetPolicies replaces the channel policies from this point on. The
// boundness definitions quantify over executions where "the physical layer
// starts behaving in the optimal way" from some point; switching to
// channel.Reliable() is exactly that point.
func (r *Runner) SetPolicies(data, ack channel.Policy) {
	if data != nil {
		if r.tlog != nil {
			data = channel.Capture(data, ioa.TtoR, r.tlog)
		}
		r.cfg.DataPolicy = data
	}
	if ack != nil {
		if r.tlog != nil {
			ack = channel.Capture(ack, ioa.RtoT, r.tlog)
		}
		r.cfg.AckPolicy = ack
	}
}

// Fork returns an independent copy of the runner — endpoints, channels and
// trace all deep-copied — with the given channel policies installed (nil
// keeps reliable delivery). Adversaries use forks to explore speculative
// extensions of the current execution, mirroring the proofs' branching over
// channel behaviours.
func (r *Runner) Fork(data, ack channel.Policy) *Runner {
	if data == nil {
		data = channel.Reliable()
	}
	if ack == nil {
		ack = channel.Reliable()
	}
	cfg := r.cfg
	var ftlog *trace.Log
	if r.tlog != nil {
		// The fork's log diverges from the parent's at this point; wrap the
		// fresh policies so the fork's own decisions are captured too.
		ftlog = r.tlog.Clone()
		data = channel.Capture(data, ioa.TtoR, ftlog)
		ack = channel.Capture(ack, ioa.RtoT, ftlog)
	}
	cfg.DataPolicy = data
	cfg.AckPolicy = ack
	cfg.TraceLog = ftlog
	f := &Runner{
		cfg:       cfg,
		T:         r.T.Clone(),
		R:         r.R.Clone(),
		ChData:    r.ChData.Clone(),
		ChAck:     r.ChAck.Clone(),
		hdrs:      slices.Clone(r.hdrs),
		distinct:  r.distinct,
		lastHdr:   r.lastHdr,
		hdrSent:   r.hdrSent,
		sent:      r.sent,
		delivered: append([]string(nil), r.delivered...),
		metrics:   r.metrics,
		curMsg:    r.curMsg,
	}
	f.cfg.Monitor = nil // monitors do not follow forks; see Config.Monitor
	f.metrics.DataPacketsPerMessage = append([]int(nil), r.metrics.DataPacketsPerMessage...)
	if r.rec != nil {
		f.rec = r.rec.Clone()
		f.kept = f.rec
	}
	f.tlog = ftlog
	protocol.BindGenies(f.T, f.R, f.ChData, f.ChAck)
	return f
}

// Run delivers n messages and returns the result. A liveness failure is
// reported in Result.Err; the partial result remains inspectable.
func (r *Runner) Run(n int) Result {
	for i := 0; i < n; i++ {
		if err := r.RunMessage(r.cfg.Payload(i)); err != nil {
			return r.result(fmt.Errorf("message %d: %w", i, err))
		}
	}
	return r.result(nil)
}

// RunMessage submits one message and steps the system until the
// transmitter is idle again (message confirmed) or the budget is exhausted.
func (r *Runner) RunMessage(payload string) error {
	r.SubmitMsg(payload)
	return r.RunToIdle()
}

// RunToIdle steps the system until the transmitter is idle (every accepted
// message confirmed) or the step budget is exhausted. Use it after
// SubmitMsg when submission and delivery need to be separated.
func (r *Runner) RunToIdle() error {
	for steps := 0; r.T.Busy(); steps++ {
		if steps >= r.cfg.StepBudget {
			return fmt.Errorf("%w after %d steps (protocol %s)", ErrStalled, steps, r.cfg.Protocol.Name())
		}
		progressed := r.StepTransmit()
		r.DrainAcks()
		if !progressed && r.T.Busy() {
			return fmt.Errorf("%w: transmitter busy with no enabled output", ErrStalled)
		}
	}
	return nil
}

// SubmitMsg records a send_msg action and hands the payload to the
// transmitter.
func (r *Runner) SubmitMsg(payload string) {
	if r.rec != nil {
		r.rec.SendMsg(ioa.Message{ID: r.sent, Payload: payload})
	}
	if r.mon != nil {
		r.mon.SendMsg(ioa.Message{ID: r.sent, Payload: payload})
	}
	if r.tlog != nil {
		r.tlog.Emit(trace.Event{Kind: trace.KindSubmit, Msg: ioa.Message{ID: r.sent, Payload: payload}})
	}
	r.ver++
	r.sent++
	r.curMsg++
	r.metrics.DataPacketsPerMessage = append(r.metrics.DataPacketsPerMessage, 0)
	r.T.SendMsg(payload)
	r.sampleState()
}

// StepTransmit performs one transmitter output step: take one enabled data
// packet, apply the data policy, and (on DeliverNow) deliver it to the
// receiver. It reports whether an output action was enabled.
func (r *Runner) StepTransmit() bool {
	if r.tlog != nil {
		r.tlog.Emit(trace.Event{Kind: trace.KindTransmit})
	}
	p, ok := r.T.NextPkt()
	if !ok {
		return false
	}
	r.recordSend(ioa.TtoR, p)
	// The policy is consulted before the channel is touched, and only a
	// delayed copy is put in transit: DeliverNow and Drop never touch the
	// channel, since adding a copy and removing it again is the identity on
	// the in-transit multiset. No observer runs between the send and its
	// fate: policies see only the packet, and the receiver's genie reads the
	// channel only inside DeliverPkt, after the copy would have been removed
	// anyway.
	switch r.cfg.DataPolicy.OnSend(p) {
	case channel.DeliverNow:
		r.recordRecv(ioa.TtoR, p)
		r.R.DeliverPkt(p)
		r.collectDelivered()
	case channel.Delay:
		r.ChData.Send(p)
	}
	if t := r.ChData.InTransit(); t > r.metrics.MaxInTransitData {
		r.metrics.MaxInTransitData = t
	}
	r.sampleState()
	return true
}

// DrainAcks moves every enabled receiver output through the ack channel.
func (r *Runner) DrainAcks() {
	if r.tlog != nil {
		r.tlog.Emit(trace.Event{Kind: trace.KindDrain})
	}
	for {
		a, ok := r.R.NextPkt()
		if !ok {
			return
		}
		r.recordSend(ioa.RtoT, a)
		switch r.cfg.AckPolicy.OnSend(a) {
		case channel.DeliverNow:
			r.recordRecv(ioa.RtoT, a)
			r.T.DeliverPkt(a)
		case channel.Delay:
			r.ChAck.Send(a)
		}
	}
}

// DeliverStale delivers one delayed in-transit copy of p on the given
// channel — the adversary's replay move ("the extension can be simulated by
// the physical layer"). It fails if no copy is in transit.
func (r *Runner) DeliverStale(d ioa.Dir, p ioa.Packet) error {
	switch d {
	case ioa.TtoR:
		if err := r.ChData.Deliver(p); err != nil {
			return err
		}
		r.recordStale(d, p)
		r.recordRecv(ioa.TtoR, p)
		r.R.DeliverPkt(p)
		r.collectDelivered()
	case ioa.RtoT:
		if err := r.ChAck.Deliver(p); err != nil {
			return err
		}
		r.recordStale(d, p)
		r.recordRecv(ioa.RtoT, p)
		r.T.DeliverPkt(p)
	default:
		return fmt.Errorf("sim: unknown direction %v", d)
	}
	r.sampleState()
	return nil
}

// DropStale permanently discards one delayed in-transit copy of p on the
// given channel — the adversary's loss move. A drop is indistinguishable
// from an infinite delay to the endpoints themselves, but not to the
// channel genies (stale-copy counts shrink), so the bounded verifier
// (internal/verify) needs it as a first-class, replayable operation. It
// fails if no copy is in transit.
func (r *Runner) DropStale(d ioa.Dir, p ioa.Packet) error {
	switch d {
	case ioa.TtoR:
		if err := r.ChData.Drop(p); err != nil {
			return err
		}
	case ioa.RtoT:
		if err := r.ChAck.Drop(p); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sim: unknown direction %v", d)
	}
	r.ver++
	if r.tlog != nil {
		r.tlog.Emit(trace.Event{Kind: trace.KindDropStale, Dir: d, Pkt: p})
	}
	return nil
}

// CorruptStart replaces the endpoint start states with entries tIdx/rIdx of
// the protocol's declared corruption space (protocol.Corruptible) — the
// self-stabilization adversary's before-time-0 move. Index 0 selects the
// clean start for that endpoint. The entries are cloned from the space's
// templates and their channel genies rebound to this runner's live channels,
// so corrupted endpoints satisfy the same contracts as clean ones.
//
// It must be called before any other operation: corruption models an
// arbitrary *initial* configuration, not a mid-run fault.
func (r *Runner) CorruptStart(tIdx, rIdx int) error {
	c, ok := r.cfg.Protocol.(protocol.Corruptible)
	if !ok {
		return fmt.Errorf("sim: protocol %s does not declare a corruption space", r.cfg.Protocol.Name())
	}
	if r.sent > 0 || r.metrics.TotalDataPackets > 0 || r.metrics.TotalAckPackets > 0 ||
		r.ChData.InTransit() > 0 || r.ChAck.InTransit() > 0 {
		return errors.New("sim: CorruptStart after the run began")
	}
	space := c.Corruptions()
	if tIdx < 0 || tIdx >= len(space.Transmitters) {
		return fmt.Errorf("sim: corrupt transmitter index %d out of range [0,%d)", tIdx, len(space.Transmitters))
	}
	if rIdx < 0 || rIdx >= len(space.Receivers) {
		return fmt.Errorf("sim: corrupt receiver index %d out of range [0,%d)", rIdx, len(space.Receivers))
	}
	r.T = space.Transmitters[tIdx].Clone()
	r.R = space.Receivers[rIdx].Clone()
	protocol.BindGenies(r.T, r.R, r.ChData, r.ChAck)
	r.ver++
	if r.tlog != nil {
		r.tlog.Emit(trace.Event{Kind: trace.KindCorrupt, Index: tIdx, Bits: uint64(rIdx)})
	}
	r.sampleState()
	return nil
}

// Poison pre-loads one packet onto the given channel: it has been "in
// transit since before time 0". The send is recorded in the ioa trace (so
// PL1 — no packet received that was never sent — holds over the poisoned
// run by construction) but is charged to neither the packet metrics nor the
// header alphabet: poison is adversary supply, not protocol cost. Poisoned
// copies are subsequently delivered or dropped through the ordinary
// DeliverStale/DropStale moves.
func (r *Runner) Poison(d ioa.Dir, p ioa.Packet) error {
	if r.sent > 0 || r.metrics.TotalDataPackets > 0 || r.metrics.TotalAckPackets > 0 {
		return errors.New("sim: Poison after the run began")
	}
	var ch *channel.NonFIFO
	switch d {
	case ioa.TtoR:
		ch = r.ChData
	case ioa.RtoT:
		ch = r.ChAck
	default:
		return fmt.Errorf("sim: unknown direction %v", d)
	}
	ch.Send(p)
	r.ver++
	if r.rec != nil {
		r.rec.SendPkt(d, p)
	}
	if r.mon != nil {
		r.mon.SendPkt(d, p)
	}
	if r.tlog != nil {
		r.tlog.Emit(trace.Event{Kind: trace.KindPoison, Dir: d, Pkt: p})
	}
	return nil
}

// recordStale logs the stale-delivery operation (before its receive_pkt
// observation, so replay re-issues the op and then verifies the effect).
func (r *Runner) recordStale(d ioa.Dir, p ioa.Packet) {
	if r.tlog != nil {
		r.tlog.Emit(trace.Event{Kind: trace.KindStale, Dir: d, Pkt: p})
	}
}

// JointState snapshots the observable joint configuration of the system:
// both endpoints' canonical state keys and the two channels' in-transit
// occupancy. The fuzzer's coverage signal is built from exactly this tuple —
// a new joint state (or a new occupancy regime) means the input drove the
// system somewhere no earlier input did.
func (r *Runner) JointState() (tkey, rkey string, dataTransit, ackTransit int) {
	return protocol.StateKey(r.T), protocol.StateKey(r.R), r.ChData.InTransit(), r.ChAck.InTransit()
}

// Reset reinitialises the runner in place for a fresh run of cfg, recycling
// the channel multisets, the header list, the recorder and the metrics
// slices. NewRunner starts every run with it; replay's pooled executor
// resets one runner per execution instead of allocating a new one. The
// recorder keeps its storage across runs that do not record.
//
// A run of the protocol the runner last ran resets its endpoints in place
// (Transmitter.Reset and Receiver.Reset), whether New built them or
// CorruptStart or Fork installed them: their genies already read this
// runner's channels. Any other protocol, and the first run, gets a new
// pair from New. The channels are reset first, since counting receivers
// snapshot their genie as they start. Every protocol type in the module is
// comparable (TestProtocolsComparable), so the comparison cannot panic.
func (r *Runner) Reset(cfg Config) {
	cfg = cfg.withDefaults()
	r.ChData.Reset(ioa.TtoR)
	r.ChAck.Reset(ioa.RtoT)
	if cfg.Protocol == r.cfg.Protocol {
		r.T.Reset()
		r.R.Reset()
	} else {
		r.T, r.R = cfg.Protocol.New(channel.ChannelGenie{Ch: r.ChData}, channel.ChannelGenie{Ch: r.ChAck})
	}
	r.cfg = cfg
	r.hdrs, r.distinct, r.hdrSent = r.hdrs[:0], 0, [2]bool{}
	r.ver++
	r.sent = 0
	r.delivered = r.delivered[:0]
	r.metrics = Metrics{DataPacketsPerMessage: r.metrics.DataPacketsPerMessage[:0]}
	r.curMsg = -1
	r.mon = cfg.Monitor
	r.rec = nil
	if cfg.RecordTrace {
		if r.kept == nil {
			r.kept = ioa.NewRecorder()
		}
		r.rec = r.kept
		r.rec.Reset()
	}
	r.tlog = cfg.TraceLog
	if r.tlog != nil {
		if r.tlog.Meta[trace.MetaProtocol] == "" {
			r.tlog.SetMeta(trace.MetaProtocol, cfg.Protocol.Name())
		}
		if r.tlog.Meta[trace.MetaKind] == "" {
			r.tlog.SetMeta(trace.MetaKind, "sim")
		}
		r.cfg.DataPolicy = channel.Capture(r.cfg.DataPolicy, ioa.TtoR, r.tlog)
		r.cfg.AckPolicy = channel.Capture(r.cfg.AckPolicy, ioa.RtoT, r.tlog)
	}
}

// Delivered returns the payloads delivered so far (live view).
func (r *Runner) Delivered() []string { return r.delivered }

// SentMessages reports the send_msg count.
func (r *Runner) SentMessages() int { return r.sent }

// Recorder exposes the trace recorder (nil unless RecordTrace).
func (r *Runner) Recorder() *ioa.Recorder { return r.rec }

// TraceLog exposes the replayable event log (nil unless Config.TraceLog was
// set). Forked runners carry independent clones.
func (r *Runner) TraceLog() *trace.Log { return r.tlog }

// Result snapshots the run outcome.
func (r *Runner) Result() Result { return r.result(nil) }

func (r *Runner) result(err error) Result {
	res := Result{
		Delivered: append([]string(nil), r.delivered...),
		Metrics:   r.metrics,
		Err:       err,
	}
	res.Metrics.HeadersUsed = r.compactHeaders()
	res.Metrics.DataPacketsPerMessage = append([]int(nil), r.metrics.DataPacketsPerMessage...)
	if r.rec != nil {
		res.Trace = r.rec.Trace()
	}
	return res
}

func (r *Runner) collectDelivered() {
	for _, payload := range r.R.TakeDelivered() {
		if r.rec != nil {
			r.rec.ReceiveMsg(ioa.Message{ID: len(r.delivered), Payload: payload})
		}
		if r.mon != nil {
			r.mon.ReceiveMsg(ioa.Message{ID: len(r.delivered), Payload: payload})
		}
		if r.tlog != nil {
			r.tlog.Emit(trace.Event{Kind: trace.KindRecvMsg, Msg: ioa.Message{ID: len(r.delivered), Payload: payload}})
		}
		r.delivered = append(r.delivered, payload)
	}
}

func (r *Runner) recordSend(d ioa.Dir, p ioa.Packet) {
	r.ver++
	if r.rec != nil {
		r.rec.SendPkt(d, p)
	}
	if r.mon != nil {
		r.mon.SendPkt(d, p)
	}
	if r.tlog != nil {
		r.tlog.Emit(trace.Event{Kind: trace.KindSendPkt, Dir: d, Pkt: p})
	}
	i := 0
	if d == ioa.RtoT {
		i = 1
	}
	if !r.hdrSent[i] || r.lastHdr[i] != p.Header {
		r.lastHdr[i], r.hdrSent[i] = p.Header, true
		if r.hdrs = append(r.hdrs, p.Header); len(r.hdrs) > 2*max(r.distinct, 32) {
			r.compactHeaders()
		}
	}
	if d == ioa.TtoR {
		r.metrics.TotalDataPackets++
		if r.curMsg >= 0 && r.curMsg < len(r.metrics.DataPacketsPerMessage) {
			r.metrics.DataPacketsPerMessage[r.curMsg]++
		}
	} else {
		r.metrics.TotalAckPackets++
	}
}

// compactHeaders reduces hdrs to its distinct headers, in the order the
// run first sent them, and returns their count. It runs in time
// proportional to the list.
func (r *Runner) compactHeaders() int {
	if r.seen == nil {
		r.seen = make(map[string]struct{})
	}
	n := 0
	for _, h := range r.hdrs {
		if _, dup := r.seen[h]; !dup {
			r.seen[h] = struct{}{}
			r.hdrs[n] = h
			n++
		}
	}
	r.hdrs, r.distinct = r.hdrs[:n], n
	for _, h := range r.hdrs {
		delete(r.seen, h)
	}
	return n
}

func (r *Runner) recordRecv(d ioa.Dir, p ioa.Packet) {
	r.ver++
	if r.rec != nil {
		r.rec.ReceivePkt(d, p)
	}
	if r.mon != nil {
		r.mon.ReceivePkt(d, p)
	}
	if r.tlog != nil {
		r.tlog.Emit(trace.Event{Kind: trace.KindRecvPkt, Dir: d, Pkt: p})
	}
}

func (r *Runner) sampleState() {
	if s := r.T.StateSize() + r.R.StateSize(); s > r.metrics.MaxStateSize {
		r.metrics.MaxStateSize = s
	}
}
