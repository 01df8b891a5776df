package replay

import (
	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// judge answers the questions the shrinker's oracles and the livelock
// certifier's refusals ask of a re-driven trace — which safety property it
// violates, and how its closing drive ends — without recording it. Run and
// CloseDrive re-record every replayed execution into a trace.Log and an
// ioa.Trace, re-check it with the batch checkers and scan it for
// divergence: that is what a certificate needs, and what a rejected shrink
// candidate or a refused certification throws away. The judge re-issues the
// same operations through the same dispatch (reissue) and the same closing
// drive (closeLoop) on one sim.Runner, reset per execution, with the
// decision streams bound to reusable replayers and an ioa.LiveChecker as the
// runner's Monitor. The LiveChecker's contract is equality with the batch
// checkers, Index and Detail included, so every answer equals the recording
// path's (TestJudgeMatchesReplay and FuzzReplayRobustness hold the two
// equal). A judge serves one trace's candidates and is not safe for
// concurrent use.
type judge struct {
	proto protocol.Protocol
	run   *sim.Runner // nil until the first execution, then Reset per execution
	check *ioa.LiveChecker

	dpol, apol        channel.DecisionReplayer
	data, ack         []trace.Decision // the executed events' decision streams
	dataUsed, ackUsed int              // policy consultations

	seen map[string]int // the closing drive's sightings
	kbuf []byte         // scratch for the closing drive's keys

	// Bookkeeping of the last execution, as Result and DriveOutcome report it.
	ops, staleSkipped int
}

// newJudge returns a judge for l and the candidates cut from it, which
// share its metadata: it checks once, as every redrive does, that l can be
// re-driven and resolves its protocol.
func newJudge(l *trace.Log) (*judge, error) {
	proto, err := resolve(l, nil)
	if err != nil {
		return nil, err
	}
	return &judge{proto: proto, check: ioa.NewLiveChecker(), seen: make(map[string]int)}, nil
}

// exec re-drives the operations among events from the protocol's initial
// configuration, substituting the events' decision streams for the channel
// policies exactly as redrive does.
func (j *judge) exec(events []trace.Event) error {
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
	j.dataUsed, j.ackUsed = 0, 0
	j.dpol.Bind(j.data, channel.Delay, &j.dataUsed)
	j.apol.Bind(j.ack, channel.Delay, &j.ackUsed)
	j.check.Reset()
	cfg := sim.Config{Protocol: j.proto, DataPolicy: &j.dpol, AckPolicy: &j.apol, Monitor: j.check}
	if j.run == nil {
		j.run = sim.NewRunner(cfg)
	} else {
		j.run.Reset(cfg)
	}
	var err error
	j.ops, j.staleSkipped, err = reissue(j.run, events)
	return err
}

// safety re-drives events and returns the first safety violation of the
// execution, as Run's Verdict reports it; nil when it is safe.
func (j *judge) safety(events []trace.Event) (*ioa.Violation, error) {
	if err := j.exec(events); err != nil {
		return nil, err
	}
	v, _ := ioa.AsViolation(j.check.Safety())
	return v, nil
}

// close re-drives events and then the closing drive of mode, returning what
// CloseDrive(events, mode, budget) would, less the capture log: Log is nil,
// and CycleStart and CycleEnd count rounds, not events.
func (j *judge) close(events []trace.Event, mode DriveMode, budget int) (*DriveOutcome, error) {
	if err := j.exec(events); err != nil {
		return nil, err
	}
	out := &DriveOutcome{
		Mode:         mode,
		Ops:          j.ops,
		StaleSkipped: j.staleSkipped,
		// The recorded stream runs dry when a replayer was consulted past its
		// end; closeLoop swaps the replayers out before driving on.
		DecisionsExhausted: j.dataUsed > len(j.data) || j.ackUsed > len(j.ack),
	}
	j.kbuf = judgeClose(j.run, j.check, budget, j.seen, j.kbuf, out)
	return out, nil
}

// judgeClose drives the closing extension of out.Mode on r, a runner that
// has executed a trace's operations unrecorded with check as its Monitor,
// and records the drive (closeLoop) and check's verdicts and counts over the
// driven execution in out. It clears seen before the drive; kbuf is the
// key scratch, returned grown for reuse.
func judgeClose(r *sim.Runner, check *ioa.LiveChecker, budget int, seen map[string]int, kbuf []byte, out *DriveOutcome) []byte {
	clear(seen)
	kbuf = closeLoop(r, budget, seen, kbuf, out)
	out.Safety, _ = ioa.AsViolation(check.Safety())
	out.DL3, _ = ioa.AsViolation(check.DL3Quiescent())
	out.Submitted = r.SentMessages()
	out.Delivered = len(r.Delivered())
	return kbuf
}
