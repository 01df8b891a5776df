package verify

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// Witness reconstruction: a finding of the exploration is a path through
// the configuration graph, and every move of that path is a sim.Runner
// operation. Re-driving the path through a fresh runner with a trace log
// attached turns the finding into an ordinary NFT schedule; replaying that
// schedule and re-deriving the explored property (confirmSafety, or
// stabilize.Witness for a corrupted start) is the checker's confirmation
// step. The two layers are deliberately independent: the explorer
// memoises steps of interned components while the runner drives live
// endpoints through its own bookkeeping, so a divergence or a clean
// replay here would expose semantic drift between verifier and simulator
// rather than slip through as a wrong verdict. The tests hold
// every visited node, not only the witnesses, to the runner's
// configuration at the end of its re-driven path (TestRedriveNodes).

// chain reconstructs the move path from its BFS root to id by walking the
// parent edges, optionally appending a final (not-visited) move such as the
// violating delivery. It returns the path and the root's node id: clean
// mode has the single root 0, but stabilize mode seeds one root per
// corrupted configuration, and the walk must stop at whichever root the
// path descends from (a root's parent edge is -1 and its move is empty —
// following it would fabricate an unknown move).
func (e *explorer) chain(id int32, last *move) ([]move, int32) {
	var rev []move
	if last != nil {
		rev = append(rev, *last)
	}
	cur := id
	for cur >= 0 && e.parents.at(cur).parent >= 0 {
		pe := e.parents.at(cur)
		rev = append(rev, move{kind: pe.kind, pkt: e.pkts.at(pe.pkt)})
		cur = pe.parent
	}
	out := make([]move, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out, cur
}

// witnessLog re-drives the move path through a fresh runner and returns the
// captured NFT schedule and the runner at the path's end. The data policy
// replays the per-transmit decisions the path encodes (Delay below cap, Drop
// at cap); the ack policy drops an ack at send when the runner's own ack
// channel already holds L, the cap the explorer's drain keeps (the runner
// consults the policy before it adds the ack). Channel-policy decisions are
// captured into the log by the runner, which is what makes the schedule
// self-contained. In stabilize mode the root's corruption is applied first,
// so the schedule opens with the replayable corrupt/poison operations and
// the witness is a complete corrupted-start scenario.
func (e *explorer) witnessLog(moves []move, root int32) (*trace.Log, *sim.Runner, error) {
	var dataDecisions []channel.Decision
	for _, m := range moves {
		switch m.kind {
		case mvTransmit:
			dataDecisions = append(dataDecisions, channel.Delay)
		case mvTransmitDrop:
			dataDecisions = append(dataDecisions, channel.Drop)
		}
	}
	wl := trace.NewLog(nil)
	di := 0
	var run *sim.Runner
	run = sim.NewRunner(sim.Config{
		Protocol: e.proto,
		DataPolicy: channel.PolicyFunc(func(ioa.Packet) channel.Decision {
			if di < len(dataDecisions) {
				d := dataDecisions[di]
				di++
				return d
			}
			return channel.Delay
		}),
		AckPolicy: channel.PolicyFunc(func(ioa.Packet) channel.Decision {
			if run.ChAck.InTransit() >= e.cfg.Occupancy {
				return channel.Drop
			}
			return channel.Delay
		}),
		TraceLog: wl,
	})
	if seed, ok := e.roots[root]; ok && !seed.Clean() {
		if err := stabilize.Apply(run, seed); err != nil {
			return nil, nil, fmt.Errorf("verify: witness re-drive: applying corrupted start %s: %v", seed, err)
		}
	}
	for i, m := range moves {
		var err error
		switch m.kind {
		case mvSubmit:
			run.SubmitMsg(protocol.Payload(run.SentMessages()))
		case mvTransmit, mvTransmitDrop:
			if !run.StepTransmit() {
				err = fmt.Errorf("no transmitter output enabled")
			}
		case mvDeliverData:
			if err = run.DeliverStale(ioa.TtoR, m.pkt); err == nil {
				run.DrainAcks()
			}
		case mvDeliverAck:
			err = run.DeliverStale(ioa.RtoT, m.pkt)
		case mvDropData:
			err = run.DropStale(ioa.TtoR, m.pkt)
		case mvDropAck:
			err = run.DropStale(ioa.RtoT, m.pkt)
		default:
			err = fmt.Errorf("unknown move kind")
		}
		if err != nil {
			return nil, nil, fmt.Errorf("verify: witness re-drive: step %d (%s): %v", i, m, err)
		}
	}
	return wl, run, nil
}

// confirmSafety replays a reconstructed witness schedule through
// stabilize.Confirm and demands that the independent checkers judge the
// replay a violation of want, the explored property. It returns the
// replay's re-recorded log, which carries the fresh verdict event.
func confirmSafety(wl *trace.Log, want string) (*trace.Log, error) {
	rr, err := stabilize.Confirm(wl)
	if err != nil {
		return nil, fmt.Errorf("verify: witness replay: %w", err)
	}
	if rr.Verdict == nil || rr.Verdict.Property != want {
		return nil, fmt.Errorf("verify: witness replay judges %v; the explored %s violation did not reproduce", rr.Verdict, want)
	}
	return rr.Log, nil
}
