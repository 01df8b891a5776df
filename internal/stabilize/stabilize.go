// Package stabilize makes self-stabilization — convergence to DL1–DL3 from
// an arbitrary initial configuration — a checkable, fuzzable, provable
// property of the repo's data-link protocols.
//
// The 1989 paper's bounds (PAPER.md, Theorems 2.1/3.1) assume every
// execution starts from the protocol's clean initial configuration. The
// modern descendants of that line (Dolev, Dubois, Potop-Butucaru, Tixeuil;
// Delaët et al. — see PAPERS.md) drop the assumption: the adversary also
// picks the start state, corrupting endpoint memory and pre-loading the
// channels, and a protocol *self-stabilizes* when every such start leads
// back to correct data-link behaviour after finitely many faults.
//
// This package supplies the model glue:
//
//   - A corrupted initial configuration is a Corruption: indexes into the
//     protocol's declared protocol.Corruptible space plus poison packets
//     per channel. Enumerate lists the bounded space; Apply injects one
//     into a fresh sim.Runner (recorded as replayable KindCorrupt /
//     KindPoison trace operations).
//   - Amnesty converts a corruption into its fault budget: the number of
//     incorrect deliveries the corruption is entitled to cause before the
//     protocol is judged divergent. One poison packet buys one fault; a
//     corrupted endpoint buys occupancy+1 (it can fabricate at most one
//     bogus adoption plus the in-flight window it desynchronises).
//   - Classify/JudgeTrace/JudgeQuiescent implement the amnesty judge: the
//     finite-prefix form of DL1–DL3 under which a stabilizing protocol's
//     corrupted runs are CORRECT (all faults within amnesty) and a
//     non-stabilizing protocol's are not.
//   - CheckConvergence runs one corrupted configuration to quiescence under
//     reliable channels and judges it — certifying *non*-convergence either
//     as an over-amnesty safety violation (replay-confirmed) or as a
//     pumped livelock certificate via replay.CertifyLivelock.
//   - Witness seals a corrupted-start schedule as a certificate, and
//     Confirm is the one check every certificate answers to wherever it
//     is replayed (DESIGN.md §13.5).
//
// The exhaustive counterpart lives in internal/verify: `nfvet verify
// -stabilize` seeds the BFS frontier with every Corruption from Enumerate
// and PROVES convergence at the configured bounds or emits a
// replay-confirmed divergence witness.
package stabilize

import (
	"strconv"
	"strings"

	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Corruption identifies one corrupted initial configuration: endpoint start
// states by index into the protocol's protocol.CorruptionSpace (0 = clean)
// plus the poison packets pre-loaded onto each channel.
type Corruption struct {
	// TIdx and RIdx index CorruptionSpace.Transmitters / .Receivers.
	TIdx, RIdx int
	// Data and Ack are the packets pre-loaded onto the t→r and r→t
	// channels, "in transit since before time 0".
	Data, Ack []ioa.Packet
}

// Clean reports whether the corruption is the clean start.
func (c Corruption) Clean() bool {
	return c.TIdx == 0 && c.RIdx == 0 && len(c.Data) == 0 && len(c.Ack) == 0
}

// Key returns a canonical encoding of the corruption, used to intern
// corrupted starts into coverage and visited maps. Poison multisets encode
// in enumeration order, which is already canonical (Enumerate emits
// non-decreasing alphabet indexes).
func (c Corruption) Key() string {
	var b strings.Builder
	b.WriteString("t")
	b.WriteString(strconv.Itoa(c.TIdx))
	b.WriteString(".r")
	b.WriteString(strconv.Itoa(c.RIdx))
	b.WriteString("|d:")
	appendPkts(&b, c.Data)
	b.WriteString("|a:")
	appendPkts(&b, c.Ack)
	return b.String()
}

func appendPkts(b *strings.Builder, pkts []ioa.Packet) {
	for i, p := range pkts {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(p.Header)
		if p.Payload != "" {
			b.WriteString("/")
			b.WriteString(p.Payload)
		}
	}
}

// String renders the corruption for reports.
func (c Corruption) String() string {
	if c.Clean() {
		return "clean"
	}
	return c.Key()
}

// Amnesty is the corruption's fault budget: the number of incorrect
// deliveries it is entitled to cause before the run counts as divergent.
// Every poison packet buys one fault (it can be delivered once); a
// corrupted endpoint buys occupancy+1 (one bogus adoption it can fabricate
// from corrupted memory, plus the window of up to occupancy in-flight
// messages its desynchronisation can strand). A stabilizing protocol's
// corrupted runs stay within this budget; the budget is deliberately finite
// so "converges after finitely many faults" is decidable on a finite
// prefix.
func Amnesty(c Corruption, occupancy int) int {
	g := len(c.Data) + len(c.Ack)
	if c.TIdx != 0 {
		g += occupancy + 1
	}
	if c.RIdx != 0 {
		g += occupancy + 1
	}
	return g
}

// Enumerate lists the protocol's bounded corrupted configurations: every
// pair of declared endpoint states crossed with every multiset of up to
// maxPoison packets per channel over the declared poison alphabets. The
// clean configuration is element 0. Protocols that do not implement
// protocol.Corruptible have only the clean configuration.
func Enumerate(p protocol.Protocol, maxPoison int) []Corruption {
	cp, ok := p.(protocol.Corruptible)
	if !ok {
		return []Corruption{{}}
	}
	space := cp.Corruptions()
	nt, nr := len(space.Transmitters), len(space.Receivers)
	if nt == 0 {
		nt = 1
	}
	if nr == 0 {
		nr = 1
	}
	dataSets := multisets(space.DataPoison, maxPoison)
	ackSets := multisets(space.AckPoison, maxPoison)
	out := make([]Corruption, 0, nt*nr*len(dataSets)*len(ackSets))
	for t := 0; t < nt; t++ {
		for r := 0; r < nr; r++ {
			for _, d := range dataSets {
				for _, a := range ackSets {
					out = append(out, Corruption{TIdx: t, RIdx: r, Data: d, Ack: a})
				}
			}
		}
	}
	return out
}

// multisets enumerates the multisets of size 0..max over the alphabet in
// deterministic DFS order: the empty multiset first, then every multiset as
// a non-decreasing sequence of alphabet indexes, extended depth-first. Each
// multiset appears exactly once.
func multisets(alphabet []ioa.Packet, max int) [][]ioa.Packet {
	out := [][]ioa.Packet{nil}
	if len(alphabet) == 0 || max <= 0 {
		return out
	}
	var cur []int
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for i := start; i < len(alphabet); i++ {
			cur = append(cur, i)
			set := make([]ioa.Packet, len(cur))
			for j, k := range cur {
				set[j] = alphabet[k]
			}
			out = append(out, set)
			rec(i, left-1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, max)
	return out
}

// Apply injects the corruption into a fresh runner: endpoint replacement
// first (recorded as a KindCorrupt operation), then channel poison
// (KindPoison operations). The runner must not have executed any operation
// yet. A clean corruption on a non-Corruptible protocol is a no-op, so
// Apply is safe to call unconditionally.
func Apply(run *sim.Runner, c Corruption) error {
	if c.TIdx != 0 || c.RIdx != 0 {
		if err := run.CorruptStart(c.TIdx, c.RIdx); err != nil {
			return err
		}
	}
	for _, p := range c.Data {
		if err := run.Poison(ioa.TtoR, p); err != nil {
			return err
		}
	}
	for _, p := range c.Ack {
		if err := run.Poison(ioa.RtoT, p); err != nil {
			return err
		}
	}
	return nil
}
