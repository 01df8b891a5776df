package fuzz

import (
	"slices"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// ExecResult is the phenotype of one input: what happened when its schedule
// was driven against a fresh protocol instance.
//
// Execute and the Core's logged executions report Verdict and DL3 in full.
// An unlogged Core.Execute of a clean start reports only their Property and
// Index, with Detail empty: a campaign reads no more of them, and a
// promotion re-executes its input with a log.
type ExecResult struct {
	// Points are the coverage points observed after each operation, in
	// order (duplicates included; sets are the caller's business).
	Points []uint64
	// Verdict is the safety violation of the executed trace (PL1 either
	// direction, DL1, DL2), nil if safe.
	Verdict *ioa.Violation
	// DL3 is the quiescent-liveness violation, nil if every submitted
	// message was delivered. It is reported separately because almost every
	// random schedule strands messages — it guides nothing.
	DL3 *ioa.Violation
	// Log is the re-recordable NFT event log of the execution; nil unless
	// requested. A promoted input's Log is what gets shrunk and written as
	// a certificate.
	Log *trace.Log
	// DataUsed and AckUsed count the decisions actually consumed per
	// channel; Trim uses them to cut dead genotype tails.
	DataUsed, AckUsed int
	// StaleHits counts OpStale operations that found a copy to deliver.
	StaleHits int
	// Corruption is the resolved corrupted start (zero/clean when the input
	// carries no gene or the protocol declares no corruption space), and
	// Amnesty/Charges are the fault budget it bought and the faults the
	// amnesty judge charged the run. Verdict/DL3 on a corrupted run are the
	// judge's over-amnesty violations, not the clean-start checkers'.
	Corruption stabilize.Corruption
	Amnesty    int
	Charges    int
}

// Execute drives one input against a fresh instance of proto and reports
// coverage and verdicts. withLog additionally records the execution as a
// replayable trace.Log (costlier; used only when promoting a winner or
// seeding certificates).
//
// Execution is total and deterministic: every syntactically valid input is a
// feasible schedule (infeasible stale picks are no-ops, dry decision streams
// fall back to Delay) and two executions of the same input are identical.
func Execute(proto protocol.Protocol, in *Input, withLog bool) *ExecResult {
	res := &ExecResult{Points: make([]uint64, 0, len(in.Ops))}

	var tlog *trace.Log
	if withLog {
		tlog = trace.NewLog(map[string]string{trace.MetaSource: "fuzz"})
	}
	r := sim.NewRunner(sim.Config{
		Protocol:    proto,
		DataPolicy:  channel.Counting(channel.FromDecisions(in.Data, channel.Delay), &res.DataUsed),
		AckPolicy:   channel.Counting(channel.FromDecisions(in.Ack, channel.Delay), &res.AckUsed),
		RecordTrace: true,
		TraceLog:    tlog,
	})

	var salt uint64
	if in.Corrupt != nil {
		res.Corruption = resolveCorruption(proto, in.Corrupt)
		res.Amnesty = stabilize.Amnesty(res.Corruption, CorruptOccupancy)
		salt = corruptSalt(res.Corruption)
		if err := stabilize.Apply(r, res.Corruption); err != nil {
			// Unreachable: resolution reduces every pick into the declared
			// space and the runner has not executed an operation yet.
			return res
		}
	}

	submits := 0
	for _, op := range in.Ops {
		switch op.Kind {
		case OpSubmit:
			r.SubmitMsg(protocol.Payload(submits))
			submits++
		case OpTransmit:
			r.StepTransmit()
		case OpDrain:
			r.DrainAcks()
		case OpStale:
			ch := r.ChData
			if op.Dir == ioa.RtoT {
				ch = r.ChAck
			}
			pkts := ch.Packets()
			if len(pkts) == 0 {
				continue
			}
			p := pkts[int(op.Pick)%len(pkts)]
			if err := r.DeliverStale(op.Dir, p); err != nil {
				// Unreachable: the pick came from the live in-transit set.
				continue
			}
			res.StaleHits++
		}
		res.Points = append(res.Points, point(r.JointState())^salt)
	}

	run := r.Result()
	if in.Corrupt != nil {
		// Corrupted runs answer to the amnesty judge: faults within the
		// corruption's budget are the stabilization latitude, faults beyond
		// it are the violation. The clean-start checkers would flag the very
		// first bought fault and tell us nothing about convergence.
		j := stabilize.JudgeTrace(run.Trace, res.Amnesty)
		res.Verdict, res.Charges = j.Violation, j.Charges
		if j.Violation == nil {
			q := stabilize.JudgeQuiescent(run.Trace, res.Amnesty)
			res.DL3, res.Charges = q.Violation, q.Charges
		}
	} else {
		if err := ioa.CheckSafety(run.Trace); err != nil {
			res.Verdict, _ = ioa.AsViolation(err)
		}
		if err := ioa.CheckDL3Quiescent(run.Trace); err != nil {
			res.DL3, _ = ioa.AsViolation(err)
		}
	}
	if withLog {
		// Replay's verdict priority: safety wins, else the quiescent DL3
		// miss (so promoted livelock traces carry their liveness claim).
		tlog.Emit(trace.VerdictEvent(res.Verdict, res.DL3))
		res.Log = tlog
	}
	return res
}

// clone returns a copy of r that shares no storage with it: the points
// and the violations are copied too. A parallel worker ships a clone of its
// Core's unlogged result, which its next execution overwrites.
func (r *ExecResult) clone() *ExecResult {
	c := *r
	c.Points = slices.Clone(r.Points)
	if r.Verdict != nil {
		v := *r.Verdict
		c.Verdict = &v
	}
	if r.DL3 != nil {
		v := *r.DL3
		c.DL3 = &v
	}
	return &c
}

// Trim returns a copy of the input, sized to its contents, with the
// unconsumed decision-stream tails removed, as measured by the execution
// res. Trimming changes nothing about the execution (unread decisions
// decide nothing) but keeps corpus genotypes at their live length, so
// mutation energy lands on bytes that matter. A campaign admits the same
// trimmed copy, made in its kit's storage (corpus.admit) rather than in
// fresh slices; nfperf's replica of the campaign loop calls Trim.
func Trim(in *Input, res *ExecResult) *Input {
	data, ack := consumed(in, res)
	return &Input{
		Ops:     slices.Clone(in.Ops),
		Data:    slices.Clone(data),
		Ack:     slices.Clone(ack),
		Corrupt: in.Corrupt.clone(),
	}
}

// consumed returns the prefixes of in's decision streams that the
// execution res read: what Trim and a campaign's corpus keep of them.
func consumed(in *Input, res *ExecResult) (data, ack []trace.Decision) {
	return in.Data[:min(res.DataUsed, len(in.Data))], in.Ack[:min(res.AckUsed, len(in.Ack))]
}
