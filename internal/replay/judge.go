package replay

import (
	"bytes"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Exec is the pooled executor every re-execution runs on: one sim.Runner,
// reset per execution, with the decision streams bound to two reusable
// channel.DecisionReplayers and an ioa.LiveChecker as its Monitor, plus the
// closing drive's sightings and key scratch. Replay's judge (below) and its
// shrinker (shrink.go) run on one, and each fuzz.Core runs its inputs, its
// livelock refusals and its promotions' shrinks on one. An Exec is
// protocol-bound and not safe for concurrent use.
type Exec struct {
	Run   *sim.Runner      // the current execution; nil before the first Start
	Check *ioa.LiveChecker // Run's Monitor, reset per execution

	proto      protocol.Protocol
	dpol, apol channel.DecisionReplayer
	seen       sightings // the closing drive's joint configurations
	kbuf       []byte    // scratch for the closing drive's keys

	// The judge's execution: its decision streams, the policies'
	// consultations of them, and the bookkeeping Result and DriveOutcome
	// report.
	data, ack         []trace.Decision
	dataUsed, ackUsed int
	ops, staleSkipped int

	// The trace the judge replays from: its events, its op groups as
	// offsets into them (segment), and a shrink's two candidate lists of
	// group indices (kept lists every group for a whole-trace replay).
	src         []trace.Event
	bounds      []int
	kept, trial []int
}

// NewExec returns an executor for protocol p.
func NewExec(p protocol.Protocol) *Exec {
	return &Exec{Check: ioa.NewLiveChecker(), proto: p, seen: sightings{first: make(map[uint64]int)}}
}

// sightings records the joint configurations one closing drive has passed,
// for its cycle check: the keys end to end in one byte log, the position
// each was first seen at, and an index from a 64-bit hash of a key to the
// first key with that hash. The Exec reuses it across drives, so once the
// log has grown a drive round allocates nothing. A repeat is declared only
// on byte equality: a hash hit compares the bytes, and a collision falls
// back to an exact scan, so no collision can certify a false cycle.
//
// The index lists the hashes the drive entered: an Exec that once ran a
// long drive keeps the index's capacity, and clearing all of it would cost
// every later drive that capacity, so reset deletes just the drive's
// hashes.
type sightings struct {
	log    []byte
	ends   []int // ends[i] is the log offset where key i ends
	pos    []int // pos[i] is the position key i was first seen at
	first  map[uint64]int
	hashes []uint64 // first's keys, in the order the drive entered them
}

func (s *sightings) reset() {
	s.log, s.ends, s.pos = s.log[:0], s.ends[:0], s.pos[:0]
	for _, h := range s.hashes {
		delete(s.first, h)
	}
	s.hashes = s.hashes[:0]
}

// key returns the bytes of key i.
func (s *sightings) key(i int) []byte {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.log[start:s.ends[i]]
}

// see returns the position key was first seen at, and true, if the drive
// has passed it; otherwise it records key as seen at pos.
func (s *sightings) see(key []byte, pos int) (int, bool) {
	h := keyHash(key)
	if i, ok := s.first[h]; !ok {
		s.first[h] = len(s.ends)
		s.hashes = append(s.hashes, h)
	} else if bytes.Equal(s.key(i), key) {
		return s.pos[i], true
	} else {
		for i := range s.ends {
			if bytes.Equal(s.key(i), key) {
				return s.pos[i], true
			}
		}
	}
	s.log = append(s.log, key...)
	s.ends = append(s.ends, len(s.log))
	s.pos = append(s.pos, pos)
	return 0, false
}

// keyHash is fnv64a over a drive key.
func keyHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// Start resets the runner for a fresh execution from the protocol's
// initial configuration and returns it. The data and ack decision streams
// stand in for the channel policies, with Delay once a stream runs dry (the
// conservative fallback: extra packets strand in transit rather than being
// delivered in ways the recording never sanctioned), and every consultation
// is counted into *dataUsed or *ackUsed, which Start zeroes. tlog, when
// non-nil, receives the capture log; record turns on the ioa recorder.
func (x *Exec) Start(data, ack []trace.Decision, dataUsed, ackUsed *int, tlog *trace.Log, record bool) *sim.Runner {
	*dataUsed, *ackUsed = 0, 0
	x.dpol.Bind(data, channel.Delay, dataUsed)
	x.apol.Bind(ack, channel.Delay, ackUsed)
	x.Check.Reset()
	cfg := sim.Config{Protocol: x.proto, DataPolicy: &x.dpol, AckPolicy: &x.apol, RecordTrace: record, TraceLog: tlog, Monitor: x.Check}
	if x.Run == nil {
		x.Run = sim.NewRunner(cfg)
	} else {
		x.Run.Reset(cfg)
	}
	return x.Run
}

// Refuse is the closing-drive refusal of CertifyLivelock(l,
// CertifyOptions{}) for the trace l whose operations the runner has just
// executed without a TraceLog: the reliable closing drive, DefaultDriveBudget
// rounds at most, runs on the runner itself, and the result is the
// diagnosis CertifyLivelock refuses l with, text for text. nil means the
// drive ends in a stranding cycle: only CertifyLivelock can certify such a
// trace, and it may still refuse it after the drive (an empty cycle, or a
// cycle that does not pump). The drive leaves the runner past l.
func (x *Exec) Refuse() error {
	out := DriveOutcome{Mode: DriveReliable}
	x.drive(DefaultDriveBudget, &out)
	return refuse(&out)
}

// The judge: Exec's re-executions of one trace, and of the candidates a
// shrink cuts from it. The shrinker's oracles and the livelock certifier's
// refusals ask which safety property an execution violates and how its
// closing drive ends; the judge answers without recording, through the
// LiveChecker, so a rejected candidate or a refused certification pays for
// no trace.Log, ioa.Trace, batch check or divergence scan. run and
// closeDrive are Run and CloseDrive on the Exec: the same dispatch (issue)
// and closing drive with a capture log, re-checked by the batch checkers.
// The LiveChecker's contract is equality with the batch checkers, Index and
// Detail included, so both paths answer alike (TestJudgeMatchesReplay and
// FuzzReplayRobustness hold them equal).

// execFor returns an executor for l and the candidates cut from it, which
// share its metadata: it checks once that l can be re-driven and resolves
// its protocol.
func execFor(l *trace.Log) (*Exec, error) {
	proto, err := resolve(l)
	if err != nil {
		return nil, err
	}
	return NewExec(proto), nil
}

// appendDecisions appends the decisions among events to the data and ack
// streams, in order.
func appendDecisions(data, ack []trace.Decision, events []trace.Event) ([]trace.Decision, []trace.Decision) {
	for _, e := range events {
		if e.Kind != trace.KindDecision {
			continue
		}
		switch e.Dir {
		case ioa.TtoR:
			data = append(data, e.Decision)
		case ioa.RtoT:
			ack = append(ack, e.Decision)
		}
	}
	return data, ack
}

// segment splits events into operation groups — a driver operation and the
// events it caused — as offsets: group g is x.src[x.bounds[g]:x.bounds[g+1]],
// its operation first. Events preceding the first operation (none, for
// runner-produced logs) form a prelude every replay keeps. Verdict events
// stay in the groups: only operations and decisions are re-driven.
func (x *Exec) segment(events []trace.Event) {
	x.src, x.bounds = events, x.bounds[:0]
	for i, e := range events {
		if e.Kind.IsOp() {
			x.bounds = append(x.bounds, i)
		}
	}
	x.bounds = append(x.bounds, len(events))
}

// all sets x.kept to every op group, in order, and returns it.
func (x *Exec) all() []int {
	x.kept = x.kept[:0]
	for g := 0; g < len(x.bounds)-1; g++ {
		x.kept = append(x.kept, g)
	}
	return x.kept
}

// group returns the events of op group g.
func (x *Exec) group(g int) []trace.Event { return x.src[x.bounds[g]:x.bounds[g+1]] }

// prelude returns the events before the first operation.
func (x *Exec) prelude() []trace.Event { return x.src[:x.bounds[0]] }

// bind resets the runner for a replay of the candidate keep, a list of
// op-group indices: the prelude's and the kept groups' decisions, in order,
// stand in for the channel policies. tlog and record are Start's.
func (x *Exec) bind(keep []int, tlog *trace.Log, record bool) {
	x.data, x.ack = appendDecisions(x.data[:0], x.ack[:0], x.prelude())
	for _, g := range keep {
		x.data, x.ack = appendDecisions(x.data, x.ack, x.group(g))
	}
	x.Start(x.data, x.ack, &x.dataUsed, &x.ackUsed, tlog, record)
	x.ops, x.staleSkipped = 0, 0
}

// replay re-drives the candidate keep from the protocol's initial
// configuration: bind's streams, then the kept groups' operations in order.
func (x *Exec) replay(keep []int, tlog *trace.Log, record bool) error {
	x.bind(keep, tlog, record)
	for _, g := range keep {
		if err := x.issue(x.src[x.bounds[g]]); err != nil {
			return err
		}
	}
	return nil
}

// exec re-drives the operations among events from the protocol's initial
// configuration, substituting the events' decision streams for the channel
// policies: the replay of all their op groups. tlog and record are Start's.
func (x *Exec) exec(events []trace.Event, tlog *trace.Log, record bool) error {
	x.segment(events)
	return x.replay(x.all(), tlog, record)
}

// exhausted reports whether the last execution consulted a replayer past
// the end of its stream. Read it before a closing drive swaps them out.
func (x *Exec) exhausted() bool { return x.dataUsed > len(x.data) || x.ackUsed > len(x.ack) }

// close re-drives events and then the closing drive of mode, returning what
// CloseDrive(events, mode, budget) would, less the capture log: Log is nil,
// and CycleStart and CycleEnd count rounds, not events.
func (x *Exec) close(events []trace.Event, mode DriveMode, budget int) (*DriveOutcome, error) {
	if err := x.exec(events, nil, false); err != nil {
		return nil, err
	}
	out := &DriveOutcome{Mode: mode, Ops: x.ops, StaleSkipped: x.staleSkipped, DecisionsExhausted: x.exhausted()}
	x.drive(budget, out)
	return out, nil
}

// capture returns a fresh capture log for a replay of l: l's metadata, with
// the source stamped "replay".
func capture(l *trace.Log) *trace.Log {
	c := trace.NewLog(nil)
	//nfvet:allow maprange (order-insensitive copy into another map)
	for k, v := range l.Meta {
		c.SetMeta(k, v)
	}
	c.SetMeta(trace.MetaSource, "replay")
	return c
}

// run is Run(l) on the Exec, for an l of the Exec's protocol.
func (x *Exec) run(l *trace.Log) (*Result, error) {
	rl := capture(l)
	if err := x.exec(l.Events, rl, true); err != nil {
		return nil, err
	}
	run := x.Run.Result()
	res := &Result{
		Protocol:           l.Meta[trace.MetaProtocol],
		Delivered:          run.Delivered,
		Metrics:            run.Metrics,
		Trace:              run.Trace,
		Ops:                x.ops,
		StaleSkipped:       x.staleSkipped,
		DecisionsExhausted: x.exhausted(),
	}
	res.Verdict, _ = ioa.AsViolation(ioa.CheckSafety(run.Trace))
	res.DL3, _ = ioa.AsViolation(ioa.CheckDL3Quiescent(run.Trace))
	res.RecordedVerdict, res.HadRecordedVerdict = l.Verdict()
	res.VerdictMatches = verdictMatches(res.Verdict, res.DL3, res.RecordedVerdict)
	res.Divergence = diverge(l, rl)

	rl.Emit(trace.VerdictEvent(res.Verdict, res.DL3))
	res.Log = rl
	return res, nil
}

// closeDrive is CloseDrive(l, mode, budget) on the Exec, for an l of the
// Exec's protocol. Its verdicts are the batch checkers', over the recorded
// trace.
func (x *Exec) closeDrive(l *trace.Log, mode DriveMode, budget int) (*DriveOutcome, error) {
	rl := capture(l)
	if err := x.exec(l.Events, rl, true); err != nil {
		return nil, err
	}
	out := &DriveOutcome{Mode: mode, Ops: x.ops, StaleSkipped: x.staleSkipped, DecisionsExhausted: x.exhausted(), Log: rl}
	x.drive(budget, out)
	tr := x.Run.Result().Trace
	out.Safety, _ = ioa.AsViolation(ioa.CheckSafety(tr))
	out.DL3, _ = ioa.AsViolation(ioa.CheckDL3Quiescent(tr))
	return out, nil
}
