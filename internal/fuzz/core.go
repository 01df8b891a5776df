package fuzz

import (
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// Core is the interned execution engine: an Execute with the same observable
// phenotype (coverage points, verdicts, logs — the differential harness in
// internal/simdiff holds the two equal) built for throughput. Where Execute
// allocates a runner per input, renders two state-key strings per operation
// and re-scans the recorded trace with the batch checkers, a Core:
//
//   - runs every input on one replay.Exec, the pooled executor replay
//     re-executes traces on: one sim.Runner reset per input, recycling the
//     channel multisets, recorder and metrics slices, with the decision
//     streams bound to reusable replayers;
//   - renders the joint state key into one reused scratch buffer (the
//     endpoints' AppendStateKey) and caches the coverage hash midstate per
//     joint key — the per-operation coverage point costs one map probe and
//     three FNV steps instead of building and hashing both key strings;
//   - judges clean runs with the executor's incremental ioa.LiveChecker
//     instead of recording a trace and re-walking it per property, and an
//     unlogged run by the checker's queries alone, so that its verdicts
//     cost no Detail;
//   - judges a livelock candidate's closing drive (refuseLivelock) with the
//     executor's Refuse, straight on from the execution it holds;
//   - shrinks a promoted violation on the same executor (shrink), and
//     re-executes the input it holds with a log reserved from the held
//     run's counts: into a fresh log for a logged Execute, into a log the
//     Core keeps for a clean promotion (promotion), whose only reader is
//     the shrink.
//
// Corrupted-start inputs keep the recorded-trace path: the amnesty judge
// consumes an ioa.Trace, and corruption is the cold path by construction
// (one in three candidates at most). A Core is protocol-bound and not safe
// for concurrent use; campaigns run one per worker, taken from a pooled
// kit, so a Core and everything it has grown serve campaign after
// campaign (see kit).
type Core struct {
	proto protocol.Protocol
	pair  map[string]uint64 // "tkey\0rkey" -> FNV midstate over those bytes
	x     *replay.Exec
	jbuf  []byte // scratch for the rendered joint key

	// held is the input whose unrecorded execution the executor holds, nil
	// once a logged execution or a closing drive has replaced it. It is
	// compared by pointer, and a campaign's candidates all live in one
	// scratch input, so the comparison leans on the campaign loop: the
	// scratch is refilled only just before its next Execute, and nothing
	// calls refuseLivelock or a logged Execute between the refill and that
	// Execute, so a held scratch is always held for its current contents.
	held *Input
	// res is the result every unlogged Execute returns, reset per call; its
	// Points keep their backing array across executions, and on a clean
	// start its Verdict and DL3 point at verdict and dl3.
	res          ExecResult
	verdict, dl3 ioa.Violation
	// pres and plog are promotion's result and log, reset per promotion and
	// keeping their storage, so a warm Core reserves no promotion log.
	pres ExecResult
	plog *trace.Log

	// Adjacency cache: the coverage point (pre-salt) last computed and the
	// runner version it was computed at. Schedules are full of unproductive
	// operations — drains with no pending acks, transmits while idle, stale
	// picks on empty channels — and sim.Runner.Version() is unchanged across
	// them, so the point is reused without rendering a single key byte. A
	// runner's version starts at 1 and only grows, across Reset too, so the
	// zero value never matches.
	lastVer uint64
	lastPt  uint64
}

// NewCore returns an execution core for proto.
func NewCore(proto protocol.Protocol) *Core {
	return &Core{proto: proto, pair: make(map[string]uint64), x: replay.NewExec(proto)}
}

// Execute drives one input and reports coverage and verdicts as the
// package-level Execute does, via the interned fast path: the same points
// and log, and verdicts naming the same properties at the same indices,
// Detail included except as below.
//
// A logged result is the caller's. An unlogged one is the Core's own,
// Points and violations included: it is valid until the Core's next
// unlogged execution (an unlogged Execute, or a refuseLivelock that
// re-executes), so a caller that keeps it longer, or hands it to another
// goroutine, copies it (ExecResult.clone). An unlogged clean-start result's
// Verdict and DL3 carry their Property and Index but no Detail: the
// campaign reads only whether they are present and what they name, so
// they are read off the live checker's queries and nothing is formatted. A
// logged one, and every corrupted-start one, carries the Detail too.
func (c *Core) Execute(in *Input, withLog bool) *ExecResult {
	if !withLog {
		c.res = ExecResult{Points: c.res.Points[:0]}
		c.execute(in, &c.res, nil)
		c.held = in
		return &c.res
	}
	res := &ExecResult{Points: make([]uint64, 0, len(in.Ops))}
	tlog := trace.NewLog(map[string]string{trace.MetaSource: "fuzz"})
	if n := c.logSize(in); n > 0 {
		tlog.Events = make([]trace.Event, 0, n)
	}
	c.execute(in, res, tlog)
	return res
}

// promotion is Execute(in, true) into the Core's own result and log, which
// keep their storage from one promotion to the next: both are valid until
// the Core's next promotion. A clean promotion re-executes its input into
// this log only for the shrink, which reads it and returns a fresh log.
func (c *Core) promotion(in *Input) *ExecResult {
	if c.plog == nil {
		c.plog = trace.NewLog(map[string]string{trace.MetaSource: "fuzz"})
	}
	c.plog.Events = c.plog.Events[:0]
	if n := c.logSize(in); n > cap(c.plog.Events) {
		c.plog.Events = make([]trace.Event, 0, n)
	}
	c.pres = ExecResult{Points: c.pres.Points[:0]}
	c.execute(in, &c.pres, c.plog)
	return &c.pres
}

// logSize returns how many events a logged execution of in records, at
// most, when the Core holds in's unrecorded execution, and 0 otherwise.
// The held execution bounds what a logged one records: an event per
// executed op (a point each, and the corrupted start's move), per observed
// action, per consumed decision, and the verdict. Submits and poisons are
// ops the checker observes too, and are counted twice.
func (c *Core) logSize(in *Input) int {
	if c.held != in {
		return 0
	}
	n := len(c.res.Points) + c.x.Check.Events() + c.res.DataUsed + c.res.AckUsed + 1
	if in.Corrupt != nil {
		n++
	}
	return n
}

// execute drives in into res, with a capture log when tlog is non-nil,
// and drops the held execution: the runner now holds this one.
func (c *Core) execute(in *Input, res *ExecResult, tlog *trace.Log) {
	corrupt := in.Corrupt != nil
	c.held = nil
	// The amnesty judge consumes a materialised trace; clean runs are judged
	// by the executor's live checker and need none. The checker watches
	// corrupted runs too, for refuseLivelock's closing drive.
	r := c.x.Start(in.Data, in.Ack, &res.DataUsed, &res.AckUsed, tlog, corrupt)

	var salt uint64
	if corrupt {
		res.Corruption = resolveCorruption(c.proto, in.Corrupt)
		res.Amnesty = stabilize.Amnesty(res.Corruption, CorruptOccupancy)
		salt = corruptSalt(res.Corruption)
		if err := stabilize.Apply(r, res.Corruption); err != nil {
			// Unreachable: resolution reduces every pick into the declared
			// space and the runner has not executed an operation yet.
			return
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
			n := ch.DistinctPackets()
			if n == 0 {
				continue
			}
			p := ch.PacketAt(int(op.Pick) % n)
			if err := r.DeliverStale(op.Dir, p); err != nil {
				// Unreachable: the pick came from the live in-transit set.
				continue
			}
			res.StaleHits++
		}
		res.Points = append(res.Points, c.point(r)^salt)
	}

	if corrupt {
		run := r.Result()
		j := stabilize.JudgeTrace(run.Trace, res.Amnesty)
		res.Verdict, res.Charges = j.Violation, j.Charges
		if j.Violation == nil {
			q := stabilize.JudgeQuiescent(run.Trace, res.Amnesty)
			res.DL3, res.Charges = q.Violation, q.Charges
		}
	} else if tlog == nil {
		if p, at := c.x.Check.SafetyVerdict(); p != "" {
			c.verdict = ioa.Violation{Property: p, Index: at}
			res.Verdict = &c.verdict
		}
		if c.x.Check.Stranded() > 0 {
			c.dl3 = ioa.Violation{Property: "DL3", Index: -1}
			res.DL3 = &c.dl3
		}
	} else {
		if err := c.x.Check.Safety(); err != nil {
			res.Verdict, _ = ioa.AsViolation(err)
		}
		if err := c.x.Check.DL3Quiescent(); err != nil {
			res.DL3, _ = ioa.AsViolation(err)
		}
	}
	if tlog != nil {
		tlog.Emit(trace.VerdictEvent(res.Verdict, res.DL3))
		res.Log = tlog
	}
}

// refuseLivelock returns the refusal replay.CertifyLivelock gives
// Execute(in, true).Log at its closing drive, judged without recording by
// the executor's Refuse, re-executing in first unless the executor still
// holds in's unrecorded execution (it does right after Execute(in, false)
// on this Core, and nothing else ran since). nil means the drive ends in a
// stranding cycle; only CertifyLivelock can then certify, or refuse, the
// logged trace. Either way the drive leaves the runner past in's execution.
// A refusal is the executor's own (Exec.Refuse), valid until the Core's
// next refuseLivelock.
func (c *Core) refuseLivelock(in *Input) error {
	if c.held != in {
		c.Execute(in, false)
	}
	c.held = nil
	return c.x.Refuse()
}

// shrink is replay.Shrink of l, a log of the Core's protocol, on the Core's
// executor. It drops the held execution: the shrink's replays reset the
// runner.
func (c *Core) shrink(l *trace.Log) (*replay.ShrinkResult, error) {
	c.held = nil
	return c.x.Shrink(l)
}

// FNV-64a, inlined so the midstate can be cached mid-stream. The constants
// and update rule are hash/fnv's; cover.go's point() is the reference.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// point computes the coverage point of the runner's current joint
// configuration, bit-identical to cover.go's point(r.JointState()).
//
// The string point hashes tkey · 0x00 · rkey · 0x00 · bucket(data) ·
// bucket(ack). FNV-64a consumes bytes strictly left to right, so the hash
// state after tkey · 0x00 · rkey depends only on those bytes — the core
// renders them into one reused scratch buffer, caches the midstate per
// joint key (a no-alloc map[string] probe; the key string is materialised
// once per distinct joint state, on the cache miss), and finishes each
// observation with the three trailing bytes.
func (c *Core) point(r *sim.Runner) uint64 {
	if r.Version() == c.lastVer {
		return c.lastPt
	}
	b := r.T.AppendStateKey(c.jbuf[:0])
	b = append(b, 0)
	b = r.R.AppendStateKey(b)
	c.jbuf = b
	mid, ok := c.pair[string(b)]
	if !ok {
		mid = uint64(fnvOffset64)
		for _, x := range b {
			mid = (mid ^ uint64(x)) * fnvPrime64
		}
		c.pair[string(b)] = mid
	}
	d, a := r.ChData.InTransit(), r.ChAck.InTransit()
	h := (mid ^ 0) * fnvPrime64
	h = (h ^ uint64(byte(occBucket(d)))) * fnvPrime64
	h = (h ^ uint64(byte(occBucket(a)))) * fnvPrime64
	c.lastVer, c.lastPt = r.Version(), h
	return h
}
