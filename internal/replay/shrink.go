package replay

import (
	"fmt"

	"repro/internal/trace"
)

// Trace shrinking: delta-debug a violating trace down to a small
// counterexample while preserving the violated property.
//
// The unit of removal is the *operation group* — a driver operation together
// with the observations and decisions it caused. Removing whole groups keeps
// every remaining decision attached to the operation that consumed it, so a
// candidate trace is still a coherent script for the replayer. Candidates
// are never trusted: each one is re-executed, and it survives only if the
// re-driven execution still violates the original property. The
// re-execution is unrecorded: a judge (judge.go) re-issues the candidate's
// operations on its executor's one reused runner under an ioa.LiveChecker,
// which by its contract returns the batch checkers' verdicts, and runs the
// liveness oracles' closing drive (CloseDrive's) the same way. Most
// candidates are rejected, so none of them pays for a capture log, an
// ioa.Trace or a divergence scan.
//
// Two oracle families are supported:
//
//   - Safety (PL1, DL1, DL2): the original delta-debugging mode. Safety
//     violations are prefix-monotone — once the violating event has happened
//     no extension can unhappen it — so a binary-search prefix-truncation
//     pass runs before greedy group removal.
//   - Liveness (quiescent DL3): a trace violates iff, after the
//     quiescence-forcing closing drive of the selected DriveMode, some
//     submitted message still has no matching delivery and safety is clean.
//     Liveness is *not* prefix-monotone (extending a violating prefix with a
//     delivering operation removes the violation, and vice versa), so only
//     the greedy removal pass runs; greedy-to-fixpoint alone still yields
//     1-minimality — removing any single remaining group loses the
//     violation.
//
// The result is the *re-recorded* log of the final candidate, not the
// candidate itself: only the kept candidate is re-driven as Run does it, on
// the same judge, with recording, and re-checked by the batch checkers, so
// what Shrink returns is an execution the replayer actually performed,
// verdict included, never a speculative edit.

// ShrinkResult describes a completed shrink.
type ShrinkResult struct {
	// Log is the minimized, re-recorded violating trace.
	Log *trace.Log
	// Property is the preserved violation property (e.g. "DL1", "DL3").
	Property string
	// Oracle names the preservation oracle used: "safety", or
	// "DL3-reliable" / "DL3-adversarial" for the liveness modes.
	Oracle string
	// OriginalEvents and FinalEvents count trace events before and after.
	OriginalEvents, FinalEvents int
	// OriginalOps and FinalOps count driver operations before and after.
	OriginalOps, FinalOps int
	// Replays is the number of candidate executions performed.
	Replays int
}

// group is one driver operation plus its trailing observation events.
type group struct{ events []trace.Event }

// segment splits a log's events into operation groups. Events preceding the
// first operation (none, for runner-produced logs) form a prelude kept in
// every candidate; verdict events are dropped (replay re-derives them).
func segment(l *trace.Log) (prelude []trace.Event, groups []group) {
	for _, e := range l.Events {
		if e.Kind == trace.KindVerdict {
			continue
		}
		if e.Kind.IsOp() {
			groups = append(groups, group{events: []trace.Event{e}})
			continue
		}
		if len(groups) == 0 {
			prelude = append(prelude, e)
			continue
		}
		g := &groups[len(groups)-1]
		g.events = append(g.events, e)
	}
	return prelude, groups
}

// oracle is a shrink-preservation predicate over candidate traces.
type oracle struct {
	// property is the preserved violation property.
	property string
	// name identifies the oracle in ShrinkResult.Oracle.
	name string
	// prefixPass enables the binary-search prefix-truncation pass; sound
	// only for prefix-monotone properties (safety).
	prefixPass bool
	// holds reports whether the candidate's events, re-driven on the judge,
	// still exhibit the violation.
	holds func(j *judge, events []trace.Event) bool
}

// safetyOracle preserves a specific safety property: Run's Verdict, judged
// unrecorded.
func safetyOracle(property string) oracle {
	return oracle{
		property:   property,
		name:       "safety",
		prefixPass: true,
		holds: func(j *judge, c []trace.Event) bool {
			v, err := j.safety(c)
			return err == nil && v != nil && v.Property == property
		},
	}
}

// livenessOracle preserves a quiescent-DL3 failure under the given closing
// drive: the driven candidate must strand a message while staying
// safety-clean (a candidate that decays into a safety violation is a
// different counterexample, not a smaller version of this one).
func livenessOracle(mode DriveMode) oracle {
	return oracle{
		property:   "DL3",
		name:       "DL3-" + mode.String(),
		prefixPass: false,
		holds: func(j *judge, c []trace.Event) bool {
			out, err := j.close(c, mode, 0)
			return err == nil && out.Safety == nil && out.DL3 != nil
		},
	}
}

// shrinkWith minimizes l against o, judging candidates on j. The caller has
// already established that o.holds(j, l.Events) is true.
func shrinkWith(l *trace.Log, j *judge, o oracle, res *ShrinkResult) (*ShrinkResult, error) {
	res.Property = o.property
	res.Oracle = o.name

	prelude, groups := segment(l)
	var buf []trace.Event // the candidate's events, rebuilt per candidate
	events := func(keep []group) []trace.Event {
		buf = append(buf[:0], prelude...)
		for _, g := range keep {
			buf = append(buf, g.events...)
		}
		return buf
	}
	violates := func(keep []group) bool {
		res.Replays++
		return o.holds(j, events(keep))
	}

	kept := append([]group(nil), groups...)
	if o.prefixPass {
		// Pass 1: minimal violating prefix, by binary search. Invariant:
		// violates(groups[:hi]) is true, violates(groups[:lo-1])
		// unknown-or-false. Sound only for prefix-monotone properties.
		lo, hi := 1, len(groups)
		for lo < hi {
			mid := (lo + hi) / 2
			if violates(groups[:mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		kept = append([]group(nil), groups[:hi]...)
	}

	// Pass 2: greedy single-group removal to a fixpoint, latest group first.
	for changed := true; changed; {
		changed = false
		for i := len(kept) - 1; i >= 0; i-- {
			trial := make([]group, 0, len(kept)-1)
			trial = append(trial, kept[:i]...)
			trial = append(trial, kept[i+1:]...)
			if violates(trial) {
				kept = trial
				changed = true
			}
		}
	}

	c := trace.NewLog(nil)
	//nfvet:allow maprange (order-insensitive copy into another map)
	for k, v := range l.Meta {
		c.SetMeta(k, v)
	}
	c.Events = append(c.Events, events(kept)...)
	final, err := j.run(c)
	res.Replays++
	if err != nil {
		return nil, fmt.Errorf("replay: re-recording shrunk trace: %w", err)
	}
	if v, _ := final.Log.Verdict(); v == nil || v.Property != res.Property {
		// Cannot happen: the kept set passed violates() above and Run is
		// deterministic. Guard anyway rather than emit a non-counterexample.
		return nil, fmt.Errorf("replay: shrunk trace lost the %s violation on re-recording", res.Property)
	}
	res.Log = final.Log
	res.FinalEvents = final.Log.Len()
	res.FinalOps = final.Ops
	return res, nil
}

// Shrink minimizes a violating trace, picking the oracle automatically: a
// safety violation is preserved through Run; failing that, a quiescent-DL3
// failure is preserved through the reliable closing drive (a genuine
// protocol livelock) or, failing that, the adversarial one (a
// stranded-message schedule a correct protocol would recover from). It
// fails if the trace violates nothing under any oracle (there is nothing to
// preserve).
func Shrink(l *trace.Log) (*ShrinkResult, error) {
	res := &ShrinkResult{OriginalEvents: l.Len()}

	j, err := newJudge(l)
	if err != nil {
		return nil, err
	}
	v, err := j.safety(l.Events)
	if err != nil {
		return nil, err
	}
	res.Replays++
	res.OriginalOps = j.ops
	if v != nil {
		return shrinkWith(l, j, safetyOracle(v.Property), res)
	}
	for _, mode := range []DriveMode{DriveReliable, DriveAdversarial} {
		o := livenessOracle(mode)
		res.Replays++
		if o.holds(j, l.Events) {
			return shrinkWith(l, j, o, res)
		}
	}
	return nil, fmt.Errorf("replay: trace violates no safety property and strands no message when replayed; nothing to shrink")
}

// ShrinkLiveness minimizes a trace against the quiescent-DL3 oracle of the
// given drive mode, refusing traces that do not exhibit a safety-clean DL3
// failure under that mode. The fuzzer's livelock promotion uses it with
// DriveReliable so the minimized schedule still livelocks — not merely
// strands — before certification.
func ShrinkLiveness(l *trace.Log, mode DriveMode) (*ShrinkResult, error) {
	res := &ShrinkResult{OriginalEvents: l.Len()}

	j, err := newJudge(l)
	if err != nil {
		return nil, err
	}
	v, err := j.safety(l.Events)
	if err != nil {
		return nil, err
	}
	res.Replays++
	res.OriginalOps = j.ops
	if v != nil {
		return nil, fmt.Errorf("replay: trace violates %s; ShrinkLiveness preserves safety-clean DL3 failures only (use Shrink)", v.Property)
	}
	o := livenessOracle(mode)
	res.Replays++
	if !o.holds(j, l.Events) {
		return nil, fmt.Errorf("replay: trace does not fail quiescent DL3 under the %s closing drive; nothing to shrink", mode)
	}
	return shrinkWith(l, j, o, res)
}
