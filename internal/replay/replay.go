// Package replay re-drives recorded executions deterministically.
//
// A trace.Log captured by internal/sim contains two interleaved strands: the
// driver *operations* (submit, transmit, drain, stale delivery) and the
// *observations* they caused (packet sends and receives, message deliveries,
// channel-policy decisions). Replay re-issues the operations against a fresh
// runner while substituting the recorded decision stream for the channel
// policies — the only source of nondeterminism in a simulated execution — so
// the original run is reproduced bit for bit. The replayed execution is
// re-checked against the paper's properties (PL1 on both channels, DL1, DL2,
// and quiescent DL3) independently of the recorded verdict, and re-recorded
// into a fresh log, which is what makes trace shrinking (see Shrink) sound:
// a shrunk trace is never trusted, it is always re-executed and re-judged.
// Shrink candidates and refused livelock certifications are re-executed
// without recording (judge.go); only what becomes a certificate is
// re-recorded.
package replay

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// LookupProtocol resolves a recorded protocol name, including the
// parameterised families (cheat<d>, cntk<k>), the deliberately broken
// specimens (livelock, cntnobind) that are not part of the main registry,
// and the transport-layer endpoint families (swindow-s<S>-w<W>,
// swindow-unbounded-w<W>, gbn-s<S>-w<W>, gbn-unbounded-w<W>). It is the one
// protocol lookup of every command that takes a protocol name.
func LookupProtocol(name string) (protocol.Protocol, error) {
	if p, ok := protocol.Registry()[name]; ok {
		return p, nil
	}
	switch name {
	case "livelock":
		return protocol.NewLivelock(), nil
	case "cntnobind":
		return protocol.NewCntNoBind(), nil
	case "arrival":
		return protocol.NewArrival(), nil
	}
	if s, ok := strings.CutPrefix(name, "cheat"); ok {
		if d, err := strconv.Atoi(s); err == nil && d > 0 {
			return protocol.NewCheat(d), nil
		}
	}
	if s, ok := strings.CutPrefix(name, "cntk"); ok {
		if k, err := strconv.Atoi(s); err == nil && k > 0 {
			return protocol.NewCntK(k), nil
		}
	}
	if s, ok := strings.CutPrefix(name, "stabdl"); ok {
		if c, err := strconv.Atoi(s); err == nil && c > 0 {
			return protocol.NewStabDL(c), nil
		}
	}
	if p, ok := transport.Parse(name); ok {
		return p, nil
	}
	return nil, fmt.Errorf("replay: unknown protocol %q (known: %s, plus livelock, cntnobind, arrival, cheat<d>, cntk<k>, stabdl<c>, swindow-s<S>-w<W>, gbn-s<S>-w<W>, and their -unbounded-w<W> forms)",
		name, strings.Join(protocol.Names(), ", "))
}

// Divergence reports the first point where the replayed execution differs
// from the recording. A faithful replay of an unmodified trace has none; a
// shrunk or hand-edited trace usually diverges (the removed operations change
// what is feasible), which is fine — the replay's own verdict is what counts.
type Divergence struct {
	// Index is the position in the replayable projection (operations,
	// observations and decisions; RNG-audit and verdict events excluded).
	Index int
	// Recorded and Replayed render the mismatching events ("<none>" when one
	// side is exhausted).
	Recorded, Replayed string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("event %d: recorded %s, replayed %s", d.Index, d.Recorded, d.Replayed)
}

// Result is the outcome of replaying a trace.
type Result struct {
	// Protocol is the protocol name from the trace metadata.
	Protocol string
	// Delivered lists payloads delivered to the higher layer during replay.
	Delivered []string
	// Metrics are the replayed run's resource measurements.
	Metrics sim.Metrics
	// Trace is the replayed execution's ioa trace (always recorded).
	Trace ioa.Trace
	// Verdict is the safety re-check of the replayed execution (PL1 both
	// directions, DL1, DL2); nil if safe.
	Verdict *ioa.Violation
	// DL3 is the quiescent-liveness check of the replayed execution; nil if
	// every submitted message was delivered. Attack traces that strand
	// messages in flight fail it by design, so it is reported separately
	// from Verdict.
	DL3 *ioa.Violation
	// RecordedVerdict is the verdict event stored in the input trace, if
	// any; HadRecordedVerdict says whether one was present.
	RecordedVerdict    *ioa.Violation
	HadRecordedVerdict bool
	// VerdictMatches reports whether the re-checked verdict agrees with the
	// recorded one: same violated safety property, both clean (a trace
	// without a verdict event counts as clean), or — for a recorded DL3
	// verdict, as liveness certificates carry — a replay that is safety-clean
	// and still fails the quiescent-liveness check.
	VerdictMatches bool
	// Log is the re-recorded event log of the replayed execution, with a
	// fresh verdict event appended. Shrinking uses it as the canonical form
	// of a candidate trace.
	Log *trace.Log
	// Ops counts the re-issued driver operations.
	Ops int
	// StaleSkipped counts recorded stale deliveries that were infeasible in
	// the replayed execution (possible only for shrunk or edited traces).
	StaleSkipped int
	// DecisionsExhausted is set when the protocol consulted a channel policy
	// more often than the recording did (ditto).
	DecisionsExhausted bool
	// Divergence is the first mismatch between recording and replay, nil if
	// the replay reproduced the recording exactly.
	Divergence *Divergence
}

// redriven is the raw outcome of re-issuing a log's operations: the runner
// (still live, so callers can keep driving it), the fresh capture log, and
// the replay bookkeeping. Run consumes it directly; the liveness certifier
// (liveness.go) keeps driving the runner past the recorded operations.
type redriven struct {
	runner             *sim.Runner
	log                *trace.Log
	ops                int
	staleSkipped       int
	decisionsExhausted bool
}

// redrive re-issues a recorded log's operations against a fresh runner with
// the recorded decision streams substituted for the channel policies. It
// fails on traces that are not re-drivable: unknown protocols, or
// observational recordings (e.g. netlink session logs, which capture only
// one vantage point of a real network run and cannot be re-executed).
func redrive(l *trace.Log) (*redriven, error) {
	proto, err := resolve(l)
	if err != nil {
		return nil, err
	}
	rd := &redriven{log: trace.NewLog(nil)}
	//nfvet:allow maprange (order-insensitive copy into another map)
	for k, v := range l.Meta {
		rd.log.SetMeta(k, v)
	}
	rd.log.SetMeta(trace.MetaSource, "replay")
	rd.runner = sim.NewRunner(sim.Config{
		Protocol: proto,
		// Substitute the recorded decision streams for the channel policies.
		// Delay is the conservative fallback once a stream runs dry: extra
		// packets strand in transit rather than being delivered in ways the
		// recording never sanctioned.
		DataPolicy:  channel.FromDecisions(l.Decisions(ioa.TtoR), channel.Delay, &rd.decisionsExhausted),
		AckPolicy:   channel.FromDecisions(l.Decisions(ioa.RtoT), channel.Delay, &rd.decisionsExhausted),
		RecordTrace: true,
		TraceLog:    rd.log,
	})
	rd.ops, rd.staleSkipped, err = reissue(rd.runner, l.Events)
	if err != nil {
		return nil, err
	}
	return rd, nil
}

// resolve checks that l can be re-driven and returns the protocol its
// metadata names.
func resolve(l *trace.Log) (protocol.Protocol, error) {
	// "sim" traces come from the simulator; "soak" traces come from the
	// lock-step netlink sessions, which drive a sim.Runner whose channel
	// behaviour is decided by a real wire — every wire outcome is lifted
	// into the recorded decision/stale vocabulary, so the log is exactly as
	// re-drivable as a simulator log. Other kinds (e.g. the free-running
	// "netlink" recordings) are observational and refused.
	if kind := l.Meta[trace.MetaKind]; kind != "" && kind != "sim" && kind != "soak" {
		return nil, fmt.Errorf("replay: trace kind %q is observational, only %q and %q traces can be re-driven", kind, "sim", "soak")
	}
	name := l.Meta[trace.MetaProtocol]
	if name == "" {
		return nil, fmt.Errorf("replay: trace has no %q metadata", trace.MetaProtocol)
	}
	return LookupProtocol(name)
}

// reissue re-issues the driver operations among events against r, in order,
// and counts them. It is the one operation dispatch of this package: the
// recording replay (redrive) and the unrecorded judge (judge.go) both
// drive through it.
func reissue(r *sim.Runner, events []trace.Event) (ops, staleSkipped int, err error) {
	for _, e := range events {
		if !e.Kind.IsOp() {
			continue
		}
		ops++
		switch e.Kind {
		case trace.KindSubmit:
			r.SubmitMsg(e.Msg.Payload)
		case trace.KindTransmit:
			r.StepTransmit()
		case trace.KindDrain:
			r.DrainAcks()
		case trace.KindStale:
			if r.DeliverStale(e.Dir, e.Pkt) != nil {
				// The delayed copy does not exist in this (shrunk) execution;
				// the move is infeasible and skipped.
				staleSkipped++
			}
		case trace.KindDropStale:
			if r.DropStale(e.Dir, e.Pkt) != nil {
				staleSkipped++
			}
		case trace.KindCorrupt:
			// Corrupted-start moves are structural: a trace that replays
			// them out of range or against a non-Corruptible protocol is
			// malformed, not shrunk, so the failure is fatal rather than
			// skipped.
			if err := r.CorruptStart(e.Index, int(e.Bits)); err != nil {
				return ops, staleSkipped, fmt.Errorf("replay: %w", err)
			}
		case trace.KindPoison:
			if err := r.Poison(e.Dir, e.Pkt); err != nil {
				return ops, staleSkipped, fmt.Errorf("replay: %w", err)
			}
		}
	}
	return ops, staleSkipped, nil
}

// Run replays a recorded simulation trace and re-checks it.
func Run(l *trace.Log) (*Result, error) {
	rd, err := redrive(l)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Protocol:           l.Meta[trace.MetaProtocol],
		Ops:                rd.ops,
		StaleSkipped:       rd.staleSkipped,
		DecisionsExhausted: rd.decisionsExhausted,
	}
	rl := rd.log

	run := rd.runner.Result()
	res.Delivered = run.Delivered
	res.Metrics = run.Metrics
	res.Trace = run.Trace
	if err := ioa.CheckSafety(run.Trace); err != nil {
		res.Verdict, _ = ioa.AsViolation(err)
	}
	if err := ioa.CheckDL3Quiescent(run.Trace); err != nil {
		res.DL3, _ = ioa.AsViolation(err)
	}
	res.RecordedVerdict, res.HadRecordedVerdict = l.Verdict()
	res.VerdictMatches = verdictMatches(res.Verdict, res.DL3, res.RecordedVerdict)
	res.Divergence = diverge(l, rl)

	rl.Emit(verdictEvent(res.Verdict, res.DL3))
	res.Log = rl
	return res, nil
}

// verdictEvent renders the replayed checker outcome as a verdict event: the
// safety violation if there is one, else the quiescent-liveness (DL3)
// violation, else a clean verdict. Safety wins because it is the stronger
// finding — a DL3 miss alongside a safety break is scheduling residue.
func verdictEvent(safety, dl3 *ioa.Violation) trace.Event {
	ve := trace.Event{Kind: trace.KindVerdict}
	switch {
	case safety != nil:
		ve.Property, ve.Index, ve.Detail = safety.Property, safety.Index, safety.Detail
	case dl3 != nil:
		ve.Property, ve.Index, ve.Detail = dl3.Property, dl3.Index, dl3.Detail
	}
	return ve
}

// verdictMatches compares the replayed checker outcome against a recorded
// verdict. A recorded DL3 verdict is a liveness claim: it is reproduced when
// the replay is safety-clean and still strands a message. Safety verdicts
// must reproduce the same property; a clean (or absent) recorded verdict
// requires a safety-clean replay.
func verdictMatches(safety, dl3, recorded *ioa.Violation) bool {
	if recorded == nil {
		return safety == nil
	}
	if recorded.Property == "DL3" {
		return safety == nil && dl3 != nil
	}
	return safety != nil && safety.Property == recorded.Property
}

// replayable projects a log onto the events a replay must reproduce:
// operations, observations and decisions. RNG-audit and verdict events are
// bookkeeping, not behaviour.
func replayable(l *trace.Log) []trace.Event {
	out := make([]trace.Event, 0, len(l.Events))
	for _, e := range l.Events {
		if e.Kind == trace.KindRNG || e.Kind == trace.KindVerdict {
			continue
		}
		out = append(out, e)
	}
	return out
}

// diverge compares the recording and the replay event for event over their
// replayable projections and returns the first mismatch, or nil when they
// agree.
func diverge(recorded, replayed *trace.Log) *Divergence {
	a, b := replayable(recorded), replayable(replayed)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return &Divergence{Index: i, Recorded: a[i].String(), Replayed: b[i].String()}
		}
	}
	if len(a) != len(b) {
		d := &Divergence{Index: n, Recorded: "<none>", Replayed: "<none>"}
		if n < len(a) {
			d.Recorded = a[n].String()
		}
		if n < len(b) {
			d.Replayed = b[n].String()
		}
		return d
	}
	return nil
}
