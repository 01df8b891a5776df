// Package trace defines the repo's persistent execution-trace format: a
// compact, versioned, self-describing event log that captures everything
// needed to re-run a simulation bit-for-bit.
//
// A recorded execution has two interleaved strands:
//
//   - *operations* — the driver-level moves that advance the system
//     (Submit, Transmit, Drain, Stale). Replaying a trace means re-issuing
//     exactly these calls against a fresh runner.
//   - *observations* — the externally visible actions they caused
//     (SendPkt, RecvPkt, RecvMsg) plus the channel-policy Decision for
//     every send and any raw RNG draws. Observations are not re-issued on
//     replay; they are compared against the replayed run, event for event,
//     to certify that the replay is faithful.
//
// Because every source of nondeterminism in the model is a channel-policy
// decision (the paper externalises all channel choice into behaviours), a
// log's Decision stream is a complete witness of the channel behaviour:
// substituting it for the live policy makes any recorded run — including an
// adversarial attack — deterministic. internal/replay implements that
// substitution, and the delta-debugging shrinker there minimises violating
// logs by deleting operation groups while the violation persists.
//
// Logs live in memory as *Log (cloneable, so speculative forks can carry
// them) and on disk in the NFT binary format (see codec.go); cmd/nftrace is
// the command-line surface.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ioa"
)

// Kind identifies the type of a trace event.
type Kind uint8

const (
	// KindSubmit is the operation sim.Runner.SubmitMsg(payload): a
	// send_msg action handing one message to the transmitter.
	KindSubmit Kind = iota + 1
	// KindTransmit is the operation sim.Runner.StepTransmit(): one
	// transmitter output step (which may find no enabled output).
	KindTransmit
	// KindDrain is the operation sim.Runner.DrainAcks(): drain every
	// enabled receiver output through the ack channel.
	KindDrain
	// KindStale is the operation sim.Runner.DeliverStale(dir, pkt): the
	// adversary's replay move, delivering one delayed in-transit copy.
	KindStale
	// KindSendPkt observes a send_pkt action on channel Dir.
	KindSendPkt
	// KindRecvPkt observes a receive_pkt action on channel Dir.
	KindRecvPkt
	// KindRecvMsg observes a receive_msg action (delivery to the higher
	// layer).
	KindRecvMsg
	// KindDecision observes a channel policy verdict on the most recent
	// send on channel Dir. The decision stream is the recorded channel
	// nondeterminism that replay substitutes for the live policy.
	KindDecision
	// KindRNG observes one raw RNG draw (the IEEE-754 bits of a float64).
	// No producer emits it; the codec still reads it so that existing logs
	// carrying it stay readable, and replay skips it.
	KindRNG
	// KindVerdict records a checker verdict over the completed execution;
	// by convention it is the final event of a log.
	KindVerdict
	// KindDropStale is the operation sim.Runner.DropStale(dir, pkt): the
	// adversary's loss move, permanently discarding one delayed in-transit
	// copy. Added after version 1 of the on-disk format shipped; readers
	// predating it fail loudly on the unknown kind rather than
	// misinterpreting the stream.
	KindDropStale
	// KindCorrupt is the operation sim.Runner.CorruptStart(tIdx, rIdx): the
	// self-stabilization adversary's before-time-0 move, replacing the
	// endpoint start states with entries tIdx/rIdx of the protocol's
	// declared corruption space. Index carries tIdx and Bits carries rIdx.
	// Requires on-disk format version 2 (see codec.go).
	KindCorrupt
	// KindPoison is the operation sim.Runner.Poison(dir, pkt): pre-loading
	// one packet onto a channel "in transit since before time 0". Like
	// KindCorrupt it is a corrupted-start move that, by convention, precedes
	// every ordinary operation in a log. Requires on-disk format version 2.
	KindPoison
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindTransmit:
		return "transmit"
	case KindDrain:
		return "drain"
	case KindStale:
		return "stale"
	case KindDropStale:
		return "drop_stale"
	case KindCorrupt:
		return "corrupt"
	case KindPoison:
		return "poison"
	case KindSendPkt:
		return "send_pkt"
	case KindRecvPkt:
		return "recv_pkt"
	case KindRecvMsg:
		return "recv_msg"
	case KindDecision:
		return "decision"
	case KindRNG:
		return "rng"
	case KindVerdict:
		return "verdict"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsOp reports whether the kind is a driver operation (re-issued on replay)
// as opposed to an observation (compared on replay).
func (k Kind) IsOp() bool {
	switch k {
	case KindSubmit, KindTransmit, KindDrain, KindStale, KindDropStale,
		KindCorrupt, KindPoison:
		return true
	}
	return false
}

// Decision is a channel policy's verdict on a freshly sent packet. It
// lives here, where the trace records it, and internal/channel uses this
// type as its channel.Decision (channel imports this package for capture
// wrappers, so the type cannot live there).
type Decision uint8

const (
	// DeliverNow delivers the packet immediately.
	DeliverNow Decision = 1
	// Delay leaves the packet in transit.
	Delay Decision = 2
	// Drop discards the packet permanently.
	Drop Decision = 3
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
		return fmt.Sprintf("decision(%d)", uint8(d))
	}
}

// Event is one record of a trace log. Which fields are meaningful depends
// on Kind; unused fields are zero and are not encoded on disk.
type Event struct {
	Kind Kind `json:"kind"`
	// Dir is set for SendPkt, RecvPkt, Stale and Decision events.
	Dir ioa.Dir `json:"dir,omitempty"`
	// Pkt is set for SendPkt, RecvPkt and Stale events.
	Pkt ioa.Packet `json:"pkt,omitempty"`
	// Msg is set for Submit and RecvMsg events.
	Msg ioa.Message `json:"msg,omitempty"`
	// Decision is set for Decision events.
	Decision Decision `json:"decision,omitempty"`
	// Bits carries the raw draw for RNG events.
	Bits uint64 `json:"bits,omitempty"`
	// Property, Index and Detail mirror ioa.Violation for Verdict events.
	// An empty Property on a Verdict event means "no violation" — the
	// checkers passed on the recorded execution.
	Property string `json:"property,omitempty"`
	Index    int    `json:"index,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// String renders the event for diagnostics.
func (e Event) String() string {
	switch e.Kind {
	case KindSubmit, KindRecvMsg:
		return fmt.Sprintf("%s(%s)", e.Kind, e.Msg)
	case KindSendPkt, KindRecvPkt, KindStale, KindDropStale, KindPoison:
		return fmt.Sprintf("%s^%s(%s)", e.Kind, e.Dir, e.Pkt)
	case KindCorrupt:
		return fmt.Sprintf("%s(t=%d r=%d)", e.Kind, e.Index, e.Bits)
	case KindDecision:
		return fmt.Sprintf("%s^%s=%s", e.Kind, e.Dir, e.Decision)
	case KindRNG:
		return fmt.Sprintf("%s(%#x)", e.Kind, e.Bits)
	case KindVerdict:
		if e.Property == "" {
			return "verdict(ok)"
		}
		return fmt.Sprintf("verdict(%s@%d)", e.Property, e.Index)
	default:
		return e.Kind.String()
	}
}

// Meta keys conventionally present in logs written by this repo.
const (
	// MetaProtocol names the protocol under test (protocol.Protocol.Name).
	MetaProtocol = "protocol"
	// MetaKind distinguishes trace provenance: "sim" for simulator runs
	// (deterministically replayable) and "soak" for lock-step netlink soak
	// sessions (wire-driven but decision-complete, equally replayable).
	// Replay re-drives these two kinds and refuses every other.
	MetaKind = "kind"
	// MetaSource is free-form provenance (tool name, attack, workload).
	MetaSource = "source"
)

// Log is an in-memory trace: metadata plus the event sequence. Producers
// (sim.Runner, channel.Capture) emit into it, and speculative execution
// forks clone their partial logs.
type Log struct {
	Meta   map[string]string `json:"meta,omitempty"`
	Events []Event           `json:"events"`
}

// NewLog returns an empty log with the given metadata (which may be nil).
func NewLog(meta map[string]string) *Log {
	m := make(map[string]string, len(meta))
	//nfvet:allow maprange (order-insensitive copy into another map)
	for k, v := range meta {
		m[k] = v
	}
	return &Log{Meta: m}
}

// Emit appends one event.
func (l *Log) Emit(e Event) { l.Events = append(l.Events, e) }

// Len reports the number of recorded events.
func (l *Log) Len() int { return len(l.Events) }

// SetMeta sets a metadata key, allocating the map if needed.
func (l *Log) SetMeta(key, val string) {
	if l.Meta == nil {
		l.Meta = make(map[string]string)
	}
	l.Meta[key] = val
}

// Clone returns an independent deep copy of the log.
func (l *Log) Clone() *Log {
	c := NewLog(l.Meta)
	c.Events = make([]Event, len(l.Events))
	copy(c.Events, l.Events)
	return c
}

// VerdictEvent renders a run's checker outcome as the verdict event that
// seals its log: the safety violation if there is one, else the
// quiescent-liveness (DL3) violation, else a clean verdict. Safety wins
// because it is the stronger finding — a DL3 miss alongside a safety break
// is scheduling residue.
func VerdictEvent(safety, dl3 *ioa.Violation) Event {
	ve := Event{Kind: KindVerdict}
	switch {
	case safety != nil:
		ve.Property, ve.Index, ve.Detail = safety.Property, safety.Index, safety.Detail
	case dl3 != nil:
		ve.Property, ve.Index, ve.Detail = dl3.Property, dl3.Index, dl3.Detail
	}
	return ve
}

// Verdict returns the final Verdict event's violation, if the log carries
// one. ok reports whether a verdict event is present at all; a present
// verdict with a nil violation means the recorded execution passed the
// checkers.
func (l *Log) Verdict() (v *ioa.Violation, ok bool) {
	for i := len(l.Events) - 1; i >= 0; i-- {
		e := l.Events[i]
		if e.Kind != KindVerdict {
			continue
		}
		if e.Property == "" {
			return nil, true
		}
		return &ioa.Violation{Property: e.Property, Index: e.Index, Detail: e.Detail}, true
	}
	return nil, false
}

// String renders the log one event per line, for diagnostics. Metadata is
// rendered in sorted key order so the output is byte-stable across runs.
func (l *Log) String() string {
	var b strings.Builder
	keys := make([]string, 0, len(l.Meta))
	//nfvet:allow maprange (keys are collected then sorted before use)
	for k := range l.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "# %s = %s\n", k, l.Meta[k])
	}
	for i, e := range l.Events {
		fmt.Fprintf(&b, "%4d  %s\n", i, e)
	}
	return b.String()
}
