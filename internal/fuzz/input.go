// Package fuzz is a corpus-based, coverage-guided fuzzer for protocol ×
// channel state spaces.
//
// Its inputs are exactly the repo's replayable nondeterminism: a *channel
// decision stream* per direction (the trace/channel.FromDecisions format)
// plus the driver operation schedule that consumes it — submits, transmitter
// steps, ack drains, and stale re-deliveries of in-transit copies. Because
// PR 1 made every source of model nondeterminism a recorded decision, any
// byte-level mutation of such an input is still a *sound* candidate
// execution: the executor re-drives it deterministically and whatever the
// checkers say about the resulting trace is true of a real execution, not of
// a speculative edit.
//
// The coverage signal is the set of joint endpoint configurations — hashes
// of (StateKey_t, StateKey_r) with log-bucketed per-channel occupancy —
// observed after each operation. Inputs that reach a new joint state enter
// the corpus; inputs whose execution violates a checked property (PL1, DL1,
// DL2, DL3-quiescent) are promoted: re-recorded as a standard NFT trace,
// minimised with internal/replay's shrinker, and written out as a
// first-class replayable violation certificate.
//
// The scheduler (see fuzz.go) is a parallel worker pool with a single
// corpus-merger goroutine; cmd/nffuzz is the command-line surface.
package fuzz

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// OpKind identifies one driver operation of an input's schedule. The values
// deliberately mirror the trace operation kinds; an input is a compressed
// form of the operation strand of a trace.Log.
type OpKind uint8

const (
	// OpSubmit hands the next message to the transmitter.
	OpSubmit OpKind = iota + 1
	// OpTransmit performs one transmitter output step; the data channel's
	// decision stream rules on the sent packet.
	OpTransmit
	// OpDrain drains every enabled receiver output through the ack channel.
	OpDrain
	// OpStale re-delivers one delayed in-transit copy, chosen by Pick among
	// the distinct packets currently on the channel selected by Dir. With
	// nothing in transit the operation is a no-op — mutation never has to
	// know what will be in flight to produce a feasible schedule.
	OpStale
)

func (k OpKind) String() string {
	switch k {
	case OpSubmit:
		return "submit"
	case OpTransmit:
		return "transmit"
	case OpDrain:
		return "drain"
	case OpStale:
		return "stale"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one schedule entry. Dir and Pick are meaningful only for OpStale.
type Op struct {
	Kind OpKind
	// Dir selects the channel for OpStale: ioa.TtoR or ioa.RtoT.
	Dir ioa.Dir
	// Pick indexes (mod the in-transit count) the distinct packet to
	// re-deliver.
	Pick uint8
}

// Input is the fuzzer's genotype: an operation schedule plus one recorded
// decision stream per channel, plus an optional corrupted-start gene.
// Decisions are consumed in send order; when a stream runs dry the executor
// falls back to Delay, exactly as replay does.
type Input struct {
	Ops  []Op
	Data []trace.Decision
	Ack  []trace.Decision
	// Corrupt, when non-nil, selects a corrupted initial configuration from
	// the protocol's declared corruption space (see corrupt.go); the executor
	// applies it before the schedule and judges the run under its amnesty.
	Corrupt *CorruptGene
}

// Clone returns an independent deep copy.
func (in *Input) Clone() *Input {
	c := new(Input)
	c.copyFrom(in)
	return c
}

// copyFrom overwrites c with a deep copy of in, in c's own storage, which
// keeps its capacity: a campaign refills one scratch candidate from each
// parent this way and mutates it in place.
func (c *Input) copyFrom(in *Input) {
	c.Ops = append(c.Ops[:0], in.Ops...)
	c.Data = append(c.Data[:0], in.Data...)
	c.Ack = append(c.Ack[:0], in.Ack...)
	c.Corrupt = in.Corrupt.clone()
}

// String renders a compact summary for logs and stats lines.
func (in *Input) String() string {
	if in.Corrupt != nil {
		return fmt.Sprintf("input{ops=%d data=%d ack=%d corrupt=t%d.r%d+%d/%d}",
			len(in.Ops), len(in.Data), len(in.Ack),
			in.Corrupt.TPick, in.Corrupt.RPick, len(in.Corrupt.Data), len(in.Corrupt.Ack))
	}
	return fmt.Sprintf("input{ops=%d data=%d ack=%d}", len(in.Ops), len(in.Data), len(in.Ack))
}

// Serialization limits. Decode rejects anything larger: corpus files are
// minimized executions, not bulk data, and the caps keep a corrupted or
// hostile file from ballooning memory.
const (
	// MaxOps caps the schedule length of a decodable input.
	MaxOps = 4096
	// MaxDecisions caps each decision stream's length.
	MaxDecisions = 8192
)

const (
	inputMagic = "NFZI"
	// inputVersionV1 is the original format: ops and decision streams only.
	inputVersionV1 = 1
	// inputVersionV2 appends the corrupted-start gene section. Encode stamps
	// it only when the input carries a gene, so gene-free inputs are
	// byte-identical to what a v1 writer produced — existing corpus
	// directories keep their content-addressed names, and a pre-corruption
	// reader only ever rejects files that actually use the new feature.
	inputVersionV2 = 2
)

// ErrInputFormat is wrapped by all Decode errors.
var ErrInputFormat = errors.New("fuzz: bad input encoding")

// Encode serializes the input in the NFZI binary format:
//
//	magic "NFZI" (4) | version (1)
//	uvarint nops  | nops × (kind, dir, pick)
//	uvarint ndata | ndata × decision
//	uvarint nack  | nack  × decision
//	-- version 2 only (present iff the input carries a corruption gene) --
//	tpick (1) | rpick (1)
//	uvarint ndatapoison | picks
//	uvarint nackpoison  | picks
func (in *Input) Encode() []byte {
	b := make([]byte, 0, 5+3*len(in.Ops)+len(in.Data)+len(in.Ack)+16)
	b = append(b, inputMagic...)
	if in.Corrupt == nil {
		b = append(b, inputVersionV1)
	} else {
		b = append(b, inputVersionV2)
	}
	b = binary.AppendUvarint(b, uint64(len(in.Ops)))
	for _, op := range in.Ops {
		b = append(b, byte(op.Kind), byte(op.Dir), op.Pick)
	}
	b = binary.AppendUvarint(b, uint64(len(in.Data)))
	for _, d := range in.Data {
		b = append(b, byte(d))
	}
	b = binary.AppendUvarint(b, uint64(len(in.Ack)))
	for _, d := range in.Ack {
		b = append(b, byte(d))
	}
	if g := in.Corrupt; g != nil {
		b = append(b, g.TPick, g.RPick)
		b = binary.AppendUvarint(b, uint64(len(g.Data)))
		b = append(b, g.Data...)
		b = binary.AppendUvarint(b, uint64(len(g.Ack)))
		b = append(b, g.Ack...)
	}
	return b
}

// Decode parses an NFZI input, validating every field; arbitrary bytes
// produce an error wrapping ErrInputFormat, never a panic and never an
// out-of-range genotype.
func Decode(b []byte) (*Input, error) {
	if len(b) < len(inputMagic)+1 {
		return nil, fmt.Errorf("%w: truncated header", ErrInputFormat)
	}
	if string(b[:len(inputMagic)]) != inputMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrInputFormat, b[:len(inputMagic)])
	}
	version := b[len(inputMagic)]
	if version != inputVersionV1 && version != inputVersionV2 {
		return nil, fmt.Errorf("%w: unsupported version %d (this reader handles %d and %d)",
			ErrInputFormat, version, inputVersionV1, inputVersionV2)
	}
	b = b[len(inputMagic)+1:]

	nops, n := binary.Uvarint(b)
	if n <= 0 || nops > MaxOps {
		return nil, fmt.Errorf("%w: bad op count", ErrInputFormat)
	}
	b = b[n:]
	if uint64(len(b)) < 3*nops {
		return nil, fmt.Errorf("%w: truncated ops", ErrInputFormat)
	}
	in := &Input{Ops: make([]Op, nops)}
	for i := range in.Ops {
		op := Op{Kind: OpKind(b[0]), Dir: ioa.Dir(b[1]), Pick: b[2]}
		b = b[3:]
		switch op.Kind {
		case OpSubmit, OpTransmit, OpDrain:
			if op.Dir != 0 || op.Pick != 0 {
				return nil, fmt.Errorf("%w: op %d: %s carries stale operands", ErrInputFormat, i, op.Kind)
			}
		case OpStale:
			if op.Dir != ioa.TtoR && op.Dir != ioa.RtoT {
				return nil, fmt.Errorf("%w: op %d: bad stale direction %d", ErrInputFormat, i, int(op.Dir))
			}
		default:
			return nil, fmt.Errorf("%w: op %d: unknown kind %d", ErrInputFormat, i, uint8(op.Kind))
		}
		in.Ops[i] = op
	}

	for _, stream := range []*[]trace.Decision{&in.Data, &in.Ack} {
		cnt, n := binary.Uvarint(b)
		if n <= 0 || cnt > MaxDecisions {
			return nil, fmt.Errorf("%w: bad decision count", ErrInputFormat)
		}
		b = b[n:]
		if uint64(len(b)) < cnt {
			return nil, fmt.Errorf("%w: truncated decisions", ErrInputFormat)
		}
		s := make([]trace.Decision, cnt)
		for i := range s {
			d := trace.Decision(b[i])
			if d != trace.DeliverNow && d != trace.Delay && d != trace.Drop {
				return nil, fmt.Errorf("%w: decision %d: unknown verdict %d", ErrInputFormat, i, b[i])
			}
			s[i] = d
		}
		*stream = s
		b = b[cnt:]
	}
	if version == inputVersionV2 {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: truncated corruption gene", ErrInputFormat)
		}
		g := &CorruptGene{TPick: b[0], RPick: b[1]}
		b = b[2:]
		for _, picks := range []*[]uint8{&g.Data, &g.Ack} {
			cnt, n := binary.Uvarint(b)
			if n <= 0 || cnt > MaxPoisonGenes {
				return nil, fmt.Errorf("%w: bad poison pick count", ErrInputFormat)
			}
			b = b[n:]
			if uint64(len(b)) < cnt {
				return nil, fmt.Errorf("%w: truncated poison picks", ErrInputFormat)
			}
			*picks = append([]uint8(nil), b[:cnt]...)
			b = b[cnt:]
		}
		in.Corrupt = g
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrInputFormat, len(b))
	}
	return in, nil
}
