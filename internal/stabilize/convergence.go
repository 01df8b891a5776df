package stabilize

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Trace metadata stamped on convergence witnesses.
const (
	// MetaCorruption records the Corruption.Key() of the corrupted start.
	MetaCorruption = "corruption"
	// MetaAmnesty records the fault budget the run was judged against.
	MetaAmnesty = "amnesty"
	// MetaStabilize records the stabilize-level verdict ("diverged
	// <property>" or "converged") that the amnesty judge reached; the
	// embedded verdict event stays the clean-start checkers' finding so the
	// witness replays with a matching verdict under `nftrace replay`, and
	// Recheck re-judges the claim itself wherever a witness is replayed.
	MetaStabilize = "stabilize"
)

// Recheck re-judges the amnesty claim of a corrupted-start certificate
// against its replay rr. A certificate is a log that carries MetaAmnesty
// and a verdict event and is not a pumped livelock certificate (whose DL3
// cycle claim is its verdict event, which rr.VerdictMatches checks); the
// amnesty judge over rr.Trace must find the property P of its "diverged P"
// MetaStabilize. Every other log claims nothing here, and Recheck returns
// nil for it.
func Recheck(l *trace.Log, rr *replay.Result) error {
	a, ok := l.Meta[MetaAmnesty]
	if _, hasVerdict := l.Verdict(); !ok || !hasVerdict || l.Meta[replay.MetaLivelockPump] != "" {
		return nil
	}
	amnesty, err := strconv.Atoi(a)
	if err != nil {
		return fmt.Errorf("stabilize: certificate amnesty %q: %w", a, err)
	}
	claim := l.Meta[MetaStabilize]
	prop, ok := strings.CutPrefix(claim, "diverged ")
	if !ok {
		return fmt.Errorf("stabilize: certificate with amnesty %d claims %q, not a divergence", amnesty, claim)
	}
	if v := JudgeQuiescent(rr.Trace, amnesty).Violation; v == nil || v.Property != prop {
		return fmt.Errorf("stabilize: certificate claims %q over amnesty %d, the replay judges %v", claim, amnesty, v)
	}
	return nil
}

// Config tunes CheckConvergence. The zero value is ready to use.
type Config struct {
	// Probes is how many messages are submitted after the corruption;
	// convergence means the tail of these flows cleanly. Defaults to 3;
	// capped at MaxLost.
	Probes int
	// Occupancy parameterises the corrupted endpoints' amnesty (see
	// Amnesty). Defaults to 2, the default verification occupancy.
	Occupancy int
	// StepBudget bounds transmitter steps per probe before the run is
	// declared stalled. Defaults to 512.
	StepBudget int
}

func (c Config) withDefaults() Config {
	if c.Probes <= 0 {
		c.Probes = 3
	}
	if c.Probes > MaxLost {
		c.Probes = MaxLost
	}
	if c.Occupancy <= 0 {
		c.Occupancy = 2
	}
	if c.StepBudget <= 0 {
		c.StepBudget = 512
	}
	return c
}

// Report is the outcome of one convergence check.
type Report struct {
	// Protocol and Seed identify the checked configuration.
	Protocol string
	Seed     Corruption
	// Amnesty is the seed's fault budget, Probes the number of messages
	// driven through the corrupted system.
	Amnesty, Probes int
	// Converged reports whether the run reached quiescence with all faults
	// within amnesty.
	Converged bool
	// Judgment is the amnesty judge's verdict when the run reached
	// quiescence (nil for stalled runs).
	Judgment *Judgment
	// Violation is the divergence: an over-amnesty fault for completed
	// runs, or a DL3 stall for runs that never went idle. Nil when
	// Converged.
	Violation *ioa.Violation
	// Cert is the pumping-lemma certificate of non-convergence when the
	// stall closed into a replay-verified livelock cycle; CertErr explains
	// why certification was refused otherwise.
	Cert    *replay.LivelockCert
	CertErr string
	// Witness is a replayable log of the diverging run (the pumped
	// certificate for livelocks, the re-recorded violating run otherwise);
	// nil when Converged. ReplayConfirmed reports that the witness
	// re-drove with zero divergence and the replayed trace re-judged to
	// the same verdict.
	Witness         *trace.Log
	ReplayConfirmed bool
}

// CheckConvergence drives one corrupted configuration to quiescence under
// reliable channels and judges it with the amnesty judge. The schedule is
// the canonical recovery scenario: the first probe is submitted, the
// poison packets are delivered stale (so corrupted in-flight state meets a
// busy transmitter, the hardest clean case), and the remaining probes flow
// one by one. Exhaustive schedule interleaving is `nfvet verify
// -stabilize`'s job; this is the single-run check the fuzzer and the CLI
// sweep build on.
//
// Non-convergence comes in two shapes, both returned as replay-verified
// witnesses: an over-amnesty fault (safety-flavoured, witness re-driven
// and re-judged) or a stall (liveness-flavoured, certified as a pumped
// livelock cycle via replay.CertifyLivelock when the run closes into one).
func CheckConvergence(p protocol.Protocol, c Corruption, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		Protocol: p.Name(),
		Seed:     c,
		Amnesty:  Amnesty(c, cfg.Occupancy),
		Probes:   cfg.Probes,
	}
	tlog := trace.NewLog(nil)
	run := sim.NewRunner(sim.Config{
		Protocol:    p,
		StepBudget:  cfg.StepBudget,
		RecordTrace: true,
		TraceLog:    tlog,
		Payload:     protocol.Payload,
	})
	if err := Apply(run, c); err != nil {
		return nil, err
	}

	stall := func(probe int, err error) (*Report, error) {
		rep.Converged = false
		rep.Violation = &ioa.Violation{
			Property: "DL3",
			Index:    -1,
			Detail:   fmt.Sprintf("probe %d never completed from corrupted start %s: %v", probe, c, err),
		}
		cert, cerr := replay.CertifyLivelock(tlog, replay.CertifyOptions{})
		if cerr != nil {
			// Not every stall closes into a certifiable cycle (e.g. the
			// closing drive recovers under a schedule the stalled run never
			// tried). Report the stall with the raw log as witness.
			rep.CertErr = cerr.Error()
			rep.Witness = stampWitness(tlog.Clone(), rep)
			return rep, nil
		}
		rep.Cert = cert
		// The same pumped artifact CertifyLivelock verified by replay.
		rep.Witness = stampWitness(cert.Pumped(replay.DefaultPump), rep)
		rep.ReplayConfirmed = true
		return rep, nil
	}

	for i := 0; i < cfg.Probes; i++ {
		run.SubmitMsg(protocol.Payload(i))
		if i == 0 {
			// Deliver the poison while the transmitter is busy with its
			// first message — corrupted in-flight packets meeting live
			// protocol state is the adversarial half of "arbitrary start".
			for _, pkt := range c.Data {
				if err := run.DeliverStale(ioa.TtoR, pkt); err != nil {
					return nil, err
				}
			}
			for _, pkt := range c.Ack {
				if err := run.DeliverStale(ioa.RtoT, pkt); err != nil {
					return nil, err
				}
			}
		}
		if err := run.RunToIdle(); err != nil {
			if errors.Is(err, sim.ErrStalled) {
				return stall(i, err)
			}
			return nil, err
		}
	}

	rep.Judgment = JudgeQuiescent(run.Result().Trace, rep.Amnesty)
	rep.Violation = rep.Judgment.Violation
	rep.Converged = rep.Violation == nil
	if rep.Converged {
		return rep, nil
	}

	// Divergence by fault overdraft: confirm the witness by replay — it
	// must re-drive with zero divergence and the replayed trace must
	// re-judge to the same violated property.
	rr, err := replay.Run(tlog)
	if err != nil {
		return nil, fmt.Errorf("stabilize: replaying divergence witness: %w", err)
	}
	rj := JudgeQuiescent(rr.Trace, rep.Amnesty)
	rep.ReplayConfirmed = rr.Divergence == nil && rj.Violation != nil &&
		rj.Violation.Property == rep.Violation.Property
	// rr.Log carries the clean-start checkers' verdict event, so the
	// witness replays with a matching verdict under `nftrace replay`; the
	// amnesty-level verdict rides in the metadata.
	rep.Witness = stampWitness(rr.Log, rep)
	return rep, nil
}

// stampWitness tags a witness log with the corrupted-start provenance.
func stampWitness(l *trace.Log, rep *Report) *trace.Log {
	l.SetMeta(trace.MetaSource, "stabilize")
	l.SetMeta(MetaCorruption, rep.Seed.Key())
	l.SetMeta(MetaAmnesty, strconv.Itoa(rep.Amnesty))
	verdict := "converged"
	if rep.Violation != nil {
		verdict = "diverged " + rep.Violation.Property
	}
	l.SetMeta(MetaStabilize, verdict)
	return l
}
