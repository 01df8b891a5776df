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
// closing drive's sightings and key scratch. The judge embeds one, and each
// fuzz.Core runs its inputs and its livelock refusals on one. An Exec is
// protocol-bound and not safe for concurrent use.
type Exec struct {
	Run   *sim.Runner      // the current execution; nil before the first Start
	Check *ioa.LiveChecker // Run's Monitor, reset per execution

	proto      protocol.Protocol
	dpol, apol channel.DecisionReplayer
	seen       sightings // the closing drive's joint configurations
	kbuf       []byte    // scratch for the closing drive's keys
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
type sightings struct {
	log   []byte
	ends  []int // ends[i] is the log offset where key i ends
	pos   []int // pos[i] is the position key i was first seen at
	first map[uint64]int
}

func (s *sightings) reset() {
	s.log, s.ends, s.pos = s.log[:0], s.ends[:0], s.pos[:0]
	clear(s.first)
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

// judge re-drives one trace, and the candidates cut from it, on its Exec.
// The shrinker's oracles and the livelock certifier's refusals ask which
// safety property an execution violates and how its closing drive ends;
// safety and close answer without recording, through the LiveChecker, so a
// rejected candidate or a refused certification pays for no trace.Log,
// ioa.Trace, batch check or divergence scan. run and closeDrive are Run and
// CloseDrive on the judge: the same dispatch (reissue) and closing drive
// with a capture log, re-checked by the batch checkers. The LiveChecker's
// contract is equality with the batch checkers, Index and Detail included,
// so both paths answer alike (TestJudgeMatchesReplay and
// FuzzReplayRobustness hold them equal). A judge is not safe for concurrent
// use.
type judge struct {
	Exec
	data, ack         []trace.Decision // the executed events' decision streams
	dataUsed, ackUsed int              // policy consultations

	// Bookkeeping of the last execution, as Result and DriveOutcome report it.
	ops, staleSkipped int
}

// newJudge returns a judge for l and the candidates cut from it, which
// share its metadata: it checks once that l can be re-driven and resolves
// its protocol.
func newJudge(l *trace.Log) (*judge, error) {
	proto, err := resolve(l)
	if err != nil {
		return nil, err
	}
	return &judge{Exec: *NewExec(proto)}, nil
}

// exec re-drives the operations among events from the protocol's initial
// configuration, substituting the events' decision streams for the channel
// policies; tlog and record are Start's.
func (j *judge) exec(events []trace.Event, tlog *trace.Log, record bool) error {
	j.data, j.ack = j.data[:0], j.ack[:0]
	for _, e := range events {
		if e.Kind != trace.KindDecision {
			continue
		}
		switch e.Dir {
		case ioa.TtoR:
			j.data = append(j.data, e.Decision)
		case ioa.RtoT:
			j.ack = append(j.ack, e.Decision)
		}
	}
	r := j.Start(j.data, j.ack, &j.dataUsed, &j.ackUsed, tlog, record)
	var err error
	j.ops, j.staleSkipped, err = reissue(r, events)
	return err
}

// exhausted reports whether the last execution consulted a replayer past
// the end of its stream. Read it before a closing drive swaps them out.
func (j *judge) exhausted() bool { return j.dataUsed > len(j.data) || j.ackUsed > len(j.ack) }

// safety re-drives events and returns the first safety violation of the
// execution, as Run's Verdict reports it; nil when it is safe.
func (j *judge) safety(events []trace.Event) (*ioa.Violation, error) {
	if err := j.exec(events, nil, false); err != nil {
		return nil, err
	}
	v, _ := ioa.AsViolation(j.Check.Safety())
	return v, nil
}

// close re-drives events and then the closing drive of mode, returning what
// CloseDrive(events, mode, budget) would, less the capture log: Log is nil,
// and CycleStart and CycleEnd count rounds, not events.
func (j *judge) close(events []trace.Event, mode DriveMode, budget int) (*DriveOutcome, error) {
	if err := j.exec(events, nil, false); err != nil {
		return nil, err
	}
	out := &DriveOutcome{Mode: mode, Ops: j.ops, StaleSkipped: j.staleSkipped, DecisionsExhausted: j.exhausted()}
	j.drive(budget, out)
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

// run is Run(l) on the judge, for an l of the judge's protocol.
func (j *judge) run(l *trace.Log) (*Result, error) {
	rl := capture(l)
	if err := j.exec(l.Events, rl, true); err != nil {
		return nil, err
	}
	run := j.Run.Result()
	res := &Result{
		Protocol:           l.Meta[trace.MetaProtocol],
		Delivered:          run.Delivered,
		Metrics:            run.Metrics,
		Trace:              run.Trace,
		Ops:                j.ops,
		StaleSkipped:       j.staleSkipped,
		DecisionsExhausted: j.exhausted(),
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

// closeDrive is CloseDrive(l, mode, budget) on the judge, for an l of the
// judge's protocol. Its verdicts are the batch checkers', over the
// recorded trace.
func (j *judge) closeDrive(l *trace.Log, mode DriveMode, budget int) (*DriveOutcome, error) {
	rl := capture(l)
	if err := j.exec(l.Events, rl, true); err != nil {
		return nil, err
	}
	out := &DriveOutcome{Mode: mode, Ops: j.ops, StaleSkipped: j.staleSkipped, DecisionsExhausted: j.exhausted(), Log: rl}
	j.drive(budget, out)
	tr := j.Run.Result().Trace
	out.Safety, _ = ioa.AsViolation(ioa.CheckSafety(tr))
	out.DL3, _ = ioa.AsViolation(ioa.CheckDL3Quiescent(tr))
	return out, nil
}
