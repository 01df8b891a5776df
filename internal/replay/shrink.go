package replay

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Trace shrinking: delta-debug a violating trace down to a small
// counterexample while preserving the violated property.
//
// The unit of removal is the *operation group* — a driver operation together
// with the observations and decisions it caused. Removing whole groups keeps
// every remaining decision attached to the operation that consumed it, so a
// candidate trace is still a coherent script for the replayer. A shrink
// holds its source log's groups as offsets into the log's events, and a
// candidate as a list of group indices: the judge (judge.go) replays a
// candidate straight from the source, group by group, so cutting one copies
// no events. Candidates are never trusted: each one is re-executed, and it
// survives only if the re-driven execution still violates the original
// property. The re-execution is unrecorded: the judge re-issues the
// candidate's operations on its executor's one reused runner under an
// ioa.LiveChecker, which by its contract returns the batch checkers'
// verdicts, and runs the liveness oracles' closing drive (CloseDrive's) the
// same way. Most candidates are rejected, so none of them pays for a capture
// log, an ioa.Trace or a divergence scan.
//
// Two oracle families are supported:
//
//   - Safety (PL1, DL1, DL2): the original delta-debugging mode. Safety
//     violations are prefix-monotone — once the violating event has happened
//     no extension can unhappen it — so the minimal violating prefix is cut
//     before greedy group removal. The shrink's first run, which classifies
//     the trace, reads it off: the count of groups after which the checker
//     first names the property. That is the prefix a binary search over
//     prefixes would find whenever the same run shows that no operation
//     consumed a decision recorded in a later group, since then every prefix
//     replays as a prefix of the run; for a trace that fails the check (an
//     edited one: every log sim records passes it), the binary search runs.
//   - Liveness (quiescent DL3): a trace violates iff, after the
//     quiescence-forcing closing drive of the selected DriveMode, some
//     submitted message still has no matching delivery and safety is clean.
//     Liveness is *not* prefix-monotone (extending a violating prefix with a
//     delivering operation removes the violation, and vice versa), so only
//     the greedy removal pass runs; greedy-to-fixpoint alone still yields
//     1-minimality — removing any single remaining group loses the
//     violation.
//
// The greedy pass judges no candidate twice: a sweep that has removed
// nothing yet stops at the index of the previous sweep's last removal,
// because every candidate below it was judged, and failed, against the same
// kept list after that removal, and the judge is deterministic.
//
// The result is the *re-recorded* log of the final candidate, not the
// candidate itself: only the kept candidate is re-driven, on the same
// executor, into a capture log, and its verdict event is the live checker's
// (the batch checkers' by contract), so what Shrink returns is an execution
// the replayer actually performed, verdict included, never a speculative
// edit.

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
	// Replays is the number of executions performed: the classification
	// runs, the candidates judged and the re-recording of the kept one. A
	// candidate the shrink skips because it was already judged is not a
	// replay, and neither is a prefix read off the classification run.
	Replays int
}

// classify segments l and replays all its op groups, unrecorded: the
// shrink's first run. It leaves x.kept holding every group and returns the
// run's safety verdict and, for a violating run, the minimal violating
// prefix: the count of groups after which Check.SafetyVerdict() first named
// the run's verdict. (It names the first violation of the highest-priority
// property seen so far, a property and index that never change while it
// stays first, so its name only ever changes to a higher-priority property,
// and the final verdict first appears at its last change.) The prefix is 0 when the run cannot vouch for it — an operation
// consumed a decision recorded in a later group, so a prefix of the log
// need not replay as a prefix of the run — and the prefix pass searches.
func (x *Exec) classify(l *trace.Log) (v *ioa.Violation, prefix int, err error) {
	x.segment(l.Events)
	x.bind(x.all(), nil, false)
	var nd, na int // the decisions recorded up to the current group
	count := func(events []trace.Event) {
		for _, e := range events {
			if e.Kind == trace.KindDecision {
				switch e.Dir {
				case ioa.TtoR:
					nd++
				case ioa.RtoT:
					na++
				}
			}
		}
	}
	count(x.prelude())
	asPrefix := true
	lastP, lastAt := "", -1
	for _, g := range x.kept {
		events := x.group(g)
		if err := x.issue(events[0]); err != nil {
			return nil, 0, err
		}
		count(events)
		asPrefix = asPrefix && x.dataUsed <= nd && x.ackUsed <= na
		if p, at := x.Check.SafetyVerdict(); p != lastP || at != lastAt {
			lastP, lastAt, prefix = p, at, g+1
		}
	}
	if !asPrefix {
		prefix = 0
	}
	v, _ = ioa.AsViolation(x.Check.Safety())
	return v, prefix, nil
}

// oracle is a shrink-preservation predicate over candidates.
type oracle struct {
	// property is the preserved violation property.
	property string
	// name identifies the oracle in ShrinkResult.Oracle.
	name string
	// prefixPass enables the prefix-truncation pass; sound only for
	// prefix-monotone properties (safety).
	prefixPass bool
	// holds reports whether the candidate keep, re-driven on x, still
	// exhibits the violation.
	holds func(x *Exec, keep []int) bool
}

// safetyOracle preserves a specific safety property: Run's Verdict, judged
// unrecorded, by its property alone, so a candidate formats no Detail.
func safetyOracle(property string) oracle {
	return oracle{
		property:   property,
		name:       "safety",
		prefixPass: true,
		holds: func(x *Exec, keep []int) bool {
			if x.replay(keep, nil, false) != nil {
				return false
			}
			p, _ := x.Check.SafetyVerdict()
			return p == property
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
		holds: func(x *Exec, keep []int) bool {
			if x.replay(keep, nil, false) != nil {
				return false
			}
			out := DriveOutcome{Mode: mode}
			x.drive(0, &out)
			p, _ := x.Check.SafetyVerdict()
			return p == "" && x.Check.Stranded() > 0
		},
	}
}

// shrinkWith minimizes the segmented l against o, judging candidates on x.
// The caller has already established that o holds for every group, which
// x.kept lists; prefix is classify's.
func (x *Exec) shrinkWith(l *trace.Log, o oracle, prefix int, res *ShrinkResult) (*ShrinkResult, error) {
	res.Property = o.property
	res.Oracle = o.name
	violates := func(keep []int) bool {
		res.Replays++
		return o.holds(x, keep)
	}

	kept, trial := x.kept, x.trial[:0]
	if o.prefixPass {
		// Pass 1: the minimal violating prefix, read off the classification
		// run or else found by binary search. Invariant: violates(kept[:hi])
		// is true, violates(kept[:lo-1]) unknown-or-false. Sound only for
		// prefix-monotone properties.
		hi := prefix
		if hi == 0 {
			lo := 1
			for hi = len(kept); lo < hi; {
				mid := (lo + hi) / 2
				if violates(kept[:mid]) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
		}
		kept = kept[:hi]
	}

	// Pass 2: greedy single-group removal to a fixpoint.
	kept, trial = greedy(kept, trial, violates)
	x.kept, x.trial = kept, trial

	// The re-recording: the kept candidate, with a capture log sized to its
	// events, and the live checker's verdict, which by its contract is the
	// batch checkers' over the run.
	rl := capture(l)
	n := len(x.prelude()) + 1
	for _, g := range kept {
		n += x.bounds[g+1] - x.bounds[g]
	}
	rl.Events = make([]trace.Event, 0, n)
	err := x.replay(kept, rl, false)
	res.Replays++
	if err != nil {
		return nil, fmt.Errorf("replay: re-recording shrunk trace: %w", err)
	}
	safety, _ := ioa.AsViolation(x.Check.Safety())
	var dl3 *ioa.Violation
	if safety == nil {
		dl3, _ = ioa.AsViolation(x.Check.DL3Quiescent())
	}
	verdict := trace.VerdictEvent(safety, dl3)
	if verdict.Property != res.Property {
		// Cannot happen: the kept set passed violates() above and the
		// re-execution is deterministic. Guard anyway rather than emit a
		// non-counterexample.
		return nil, fmt.Errorf("replay: shrunk trace lost the %s violation on re-recording", res.Property)
	}
	rl.Emit(verdict)
	res.Log = rl
	res.FinalEvents = rl.Len()
	res.FinalOps = x.ops
	return res, nil
}

// greedy removes single groups from kept, latest first, while violates
// still holds without them, sweeping until a sweep removes none, and
// returns the kept list and the spare slice it built candidates in. A
// sweep that has removed nothing yet stops below floor, the index of the
// previous sweep's last removal: the candidates below it were judged
// against this same kept list, after that removal, and failed.
func greedy(kept, trial []int, violates func(keep []int) bool) ([]int, []int) {
	for floor := 0; ; {
		last := -1
		for i := len(kept) - 1; i >= 0 && (last >= 0 || i >= floor); i-- {
			trial = append(append(trial[:0], kept[:i]...), kept[i+1:]...)
			if violates(trial) {
				kept, trial = trial, kept
				last = i
			}
		}
		if last < 0 {
			return kept, trial
		}
		floor = last
	}
}

// Shrink minimizes a violating trace, picking the oracle automatically: a
// safety violation is preserved through Run; failing that, a quiescent-DL3
// failure is preserved through the reliable closing drive (a genuine
// protocol livelock) or, failing that, the adversarial one (a
// stranded-message schedule a correct protocol would recover from). It
// fails if the trace violates nothing under any oracle (there is nothing to
// preserve).
func Shrink(l *trace.Log) (*ShrinkResult, error) {
	proto, err := resolve(l)
	if err != nil {
		return nil, err
	}
	return NewExec(proto).shrink(l)
}

// Shrink is the package's Shrink on x, for a trace of x's protocol, which
// it refuses any other: the shrink's scratch — the op groups' offsets and
// the two candidate lists — stays on x for its next shrink. It leaves x's
// runner past the re-recorded execution.
func (x *Exec) Shrink(l *trace.Log) (*ShrinkResult, error) {
	if err := redrivable(l); err != nil {
		return nil, err
	}
	if name := l.Meta[trace.MetaProtocol]; name != x.proto.Name() {
		return nil, fmt.Errorf("replay: trace records protocol %q, the executor runs %q", name, x.proto.Name())
	}
	return x.shrink(l)
}

// shrink is Shrink on x, for a redrivable l of x's protocol.
func (x *Exec) shrink(l *trace.Log) (*ShrinkResult, error) {
	defer func() { x.src = nil }() // x outlives the shrink; l need not
	res := &ShrinkResult{OriginalEvents: l.Len()}
	v, prefix, err := x.classify(l)
	if err != nil {
		return nil, err
	}
	res.Replays++
	res.OriginalOps = x.ops
	if v != nil {
		return x.shrinkWith(l, safetyOracle(v.Property), prefix, res)
	}
	for _, mode := range [...]DriveMode{DriveReliable, DriveAdversarial} {
		o := livenessOracle(mode)
		res.Replays++
		if o.holds(x, x.kept) {
			return x.shrinkWith(l, o, 0, res)
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
	x, err := execFor(l)
	if err != nil {
		return nil, err
	}
	res := &ShrinkResult{OriginalEvents: l.Len()}
	v, _, err := x.classify(l)
	if err != nil {
		return nil, err
	}
	res.Replays++
	res.OriginalOps = x.ops
	if v != nil {
		return nil, fmt.Errorf("replay: trace violates %s; ShrinkLiveness preserves safety-clean DL3 failures only (use Shrink)", v.Property)
	}
	o := livenessOracle(mode)
	res.Replays++
	if !o.holds(x, x.kept) {
		return nil, fmt.Errorf("replay: trace does not fail quiescent DL3 under the %s closing drive; nothing to shrink", mode)
	}
	return x.shrinkWith(l, o, 0, res)
}
