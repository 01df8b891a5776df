package replay

// Liveness certification: the executable analogue of Theorem 2.1's pumping
// argument. A finite trace that strands a submitted message is not, by
// itself, a liveness violation — the channel might still deliver everything
// later. What the paper's proof actually exhibits is a *cycle*: a repeated
// joint configuration with no delivery progress, which the channel can
// iterate forever, so no continuation ever delivers the stranded message.
//
// CloseDrive builds the quiescence-forcing closing extension: replay the
// trace, then switch the channels to the mode's closing behaviour (Reliable
// delivers everything; adversarial drops everything) and keep driving the
// protocol — transmitter steps and ack drains only, no new send_msg — until
// it either goes quiescent, repeats a joint configuration, or exhausts the
// round budget. Because the drive is deterministic and the cycle key
// includes the full joint configuration (both endpoint state keys, both
// channels' multiset contents, and the delivery count), a repeated key means
// the system will loop through exactly those configurations forever: the
// stranded message is never delivered under *any* continuation the closing
// channel produces. Under the reliable closure that is the paper's livelock
// — the protocol fails even with the physical layer behaving optimally.
// Under the adversarial closure it certifies the *schedule*: the recorded
// channel behaviour, continued, pins the protocol in a no-progress loop.
//
// CertifyLivelock packages the find as a LivelockCert{prefix, cycle} and
// then *checks its own work*: the cycle is pumped N times into an ordinary
// NFT trace and replayed, and the certificate is issued only if the pumped
// trace reproduces with zero divergence, stays safety-clean, and still fails
// the quiescent DL3 check. State keys are protocol-supplied, so the pump
// replay — not the key comparison — is the ground truth.

import (
	"fmt"
	"strconv"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DriveMode selects the channel behaviour of the closing extension.
type DriveMode int

const (
	// DriveReliable closes the trace under the optimal physical layer: every
	// packet sent from now on is delivered immediately, the transmitter is
	// stepped and the receiver drained until quiescence or a repeated joint
	// configuration. A DL3 failure surviving this drive is the protocol's
	// own fault — the paper's livelock notion.
	DriveReliable DriveMode = iota
	// DriveAdversarial closes the trace under the fully adversarial physical
	// layer, which delivers nothing further: every packet the drive sends is
	// dropped on arrival, so the joint configuration can only shrink or
	// repeat, never grow. The drive still steps the transmitter and drains
	// acks under this closure, and a repeated configuration certifies a
	// cycle *under the recorded schedule*: the channel behaviour captured in
	// the trace, continued adversarially, pins the protocol in a no-progress
	// loop. A DL3 failure under this mode blames the schedule, not the
	// protocol — it is the oracle for shrinking stranded-message schedules
	// (which a correct protocol would recover from, given a fair channel).
	DriveAdversarial
)

func (m DriveMode) String() string {
	switch m {
	case DriveReliable:
		return "reliable"
	case DriveAdversarial:
		return "adversarial"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DefaultDriveBudget bounds the closing drive's rounds when the caller does
// not. One round is one transmitter step plus one ack drain; protocols in
// this repo cycle within a handful of rounds, so 512 is generous.
const DefaultDriveBudget = 512

// DefaultPump is how many times a livelock certificate's cycle is repeated
// when the caller does not say: in the verification replay, and in the
// pumped certificates the prover, fuzzer and stabilizer emit.
const DefaultPump = 3

// DriveOutcome reports what the closing extension did to a replayed trace.
type DriveOutcome struct {
	// Mode is the drive mode that produced this outcome.
	Mode DriveMode
	// Rounds counts the executed drive rounds.
	Rounds int
	// Quiescent is set when the transmitter went idle: every accepted
	// message was confirmed, nothing more will happen.
	Quiescent bool
	// CycleFound is set when a joint configuration repeated with no delivery
	// progress; RepeatedKey is that configuration's canonical key, and
	// Log.Events[CycleStart:CycleEnd] is one full cycle of events.
	CycleFound           bool
	RepeatedKey          string
	CycleStart, CycleEnd int
	// Safety and DL3 are the checker verdicts over the driven execution
	// (replayed trace plus closing extension); nil when the property holds.
	Safety *ioa.Violation
	DL3    *ioa.Violation
	// Submitted and Delivered count messages over the driven execution.
	Submitted, Delivered int
	// Log is the capture log of the driven execution: the replayed
	// operations followed by the drive's own operations and decisions.
	Log *trace.Log
	// Ops, StaleSkipped and DecisionsExhausted carry the replay bookkeeping
	// of the re-driven prefix (see Result).
	Ops                int
	StaleSkipped       int
	DecisionsExhausted bool
}

// appendDriveKey canonically encodes the joint configuration the cycle
// detector hashes on: both endpoint state keys, both channels' multiset
// contents, and the delivery count, 0x1f-joined. Including the channel
// contents makes a repeat imply a genuine loop of the deterministic drive
// (endpoint keys alone are not enough for genie-consulting protocols, whose
// moves read channel occupancy); including the delivery count makes a
// repeat imply no delivery progress, which is what the pumping argument
// needs. It appends into dst so the drive loop renders each round's key
// into one reused buffer — this is the hottest line of livelock
// certification, which in turn dominates shrink-heavy fuzz campaigns.
func appendDriveKey(dst []byte, r *sim.Runner) []byte {
	dst = r.T.AppendStateKey(dst)
	dst = append(dst, 0x1f)
	dst = r.R.AppendStateKey(dst)
	dst = append(dst, 0x1f)
	dst = r.ChData.AppendKey(dst)
	dst = append(dst, 0x1f)
	dst = r.ChAck.AppendKey(dst)
	dst = append(dst, 0x1f)
	return strconv.AppendInt(dst, int64(len(r.Delivered())), 10)
}

// CloseDrive replays l and drives the quiescence-forcing closing extension:
// no new messages are submitted, and the channels switch to the behaviour
// selected by mode. budget bounds the drive rounds; <= 0 means
// DefaultDriveBudget.
func CloseDrive(l *trace.Log, mode DriveMode, budget int) (*DriveOutcome, error) {
	x, err := execFor(l)
	if err != nil {
		return nil, err
	}
	return x.closeDrive(l, mode, budget)
}

// drive is the closing drive, run straight on from the runner's execution:
// it switches the channels to the closing behaviour of out.Mode and steps
// the transmitter and drains acks until the transmitter goes idle, a joint
// configuration repeats, or budget rounds (<= 0 means DefaultDriveBudget)
// have run. It records Rounds, Quiescent, the cycle and the message counts
// in out, and leaves the verdicts to the caller: the checker holds them. A
// cycle's positions are capture-log event indexes when the runner records
// a log, and round numbers when it does not.
func (x *Exec) drive(budget int, out *DriveOutcome) {
	if budget <= 0 {
		budget = DefaultDriveBudget
	}
	r := x.Run
	if out.Mode == DriveReliable {
		r.SetPolicies(channel.Reliable(), channel.Reliable())
	} else {
		// Adversarial: every packet sent from here on is dropped on arrival
		// (DropEvery(1) drops the 1st, 2nd, ... — all of them), so the joint
		// configuration cannot grow and the drive either quiesces or cycles.
		r.SetPolicies(channel.DropEvery(1), channel.DropEvery(1))
	}
	tl := r.TraceLog()
	pos := func() int {
		if tl != nil {
			return len(tl.Events)
		}
		return out.Rounds
	}
	x.seen.reset()
	for out.Rounds < budget {
		if !r.T.Busy() {
			out.Quiescent = true
			break
		}
		x.kbuf = appendDriveKey(x.kbuf[:0], r)
		if at, ok := x.seen.see(x.kbuf, pos()); ok {
			out.CycleFound = true
			out.RepeatedKey = string(x.kbuf)
			out.CycleStart = at
			out.CycleEnd = pos()
			break
		}
		r.StepTransmit()
		r.DrainAcks()
		out.Rounds++
	}
	out.Submitted = r.SentMessages()
	out.Delivered = len(r.Delivered())
}

// Meta keys stamped on pumped livelock certificates.
const (
	// MetaLivelockPump records how many times the cycle was pumped.
	MetaLivelockPump = "livelock-pump"
	// MetaLivelockCycleOps records the driver-operation count of one cycle.
	MetaLivelockCycleOps = "livelock-cycle-ops"
	// MetaLivelockKey records the repeated joint configuration.
	MetaLivelockKey = "livelock-key"
	// MetaLivelockMode records the closing-drive mode the cycle was
	// certified under ("reliable" or "adversarial").
	MetaLivelockMode = "livelock-mode"
)

// LivelockCert is a certified livelock: a prefix that reaches a joint
// configuration, and a non-empty cycle of events that returns to it with no
// delivery progress. Pumping the cycle any number of times yields a valid
// replayable trace that still strands the same messages — the executable
// form of Theorem 2.1's "the channel can loop forever" argument.
type LivelockCert struct {
	// Protocol is the certified protocol's name.
	Protocol string
	// Mode is the closing-drive mode the cycle was found under. Reliable
	// certifies a protocol livelock (the paper's notion); adversarial
	// certifies that the recorded schedule, continued, loops forever.
	Mode DriveMode
	// RepeatedKey is the repeated joint configuration (driveKey encoding).
	RepeatedKey string
	// Prefix reaches the repeated configuration; Cycle returns to it.
	Prefix, Cycle []trace.Event
	// PrefixOps and CycleOps count driver operations in each part.
	PrefixOps, CycleOps int
	// DL3 is the liveness violation the certificate witnesses.
	DL3 *ioa.Violation
}

func countOps(events []trace.Event) int {
	n := 0
	for _, e := range events {
		if e.Kind.IsOp() {
			n++
		}
	}
	return n
}

// Pumped renders the certificate as an ordinary NFT trace with the cycle
// repeated n (>= 1) times, ending in a DL3 verdict event. The result is a
// self-contained certificate: replaying it re-derives the violation with
// zero divergence, and any nftrace tooling can inspect it.
func (c *LivelockCert) Pumped(n int) *trace.Log {
	if n < 1 {
		n = 1
	}
	p := trace.NewLog(nil)
	p.SetMeta(trace.MetaProtocol, c.Protocol)
	p.SetMeta(trace.MetaKind, "sim")
	p.SetMeta(trace.MetaSource, "livelock-pump")
	p.SetMeta(MetaLivelockPump, strconv.Itoa(n))
	p.SetMeta(MetaLivelockCycleOps, strconv.Itoa(c.CycleOps))
	p.SetMeta(MetaLivelockKey, c.RepeatedKey)
	p.SetMeta(MetaLivelockMode, c.Mode.String())
	p.Events = append(p.Events, c.Prefix...)
	for i := 0; i < n; i++ {
		p.Events = append(p.Events, c.Cycle...)
	}
	p.Emit(trace.VerdictEvent(nil, c.DL3))
	return p
}

// CertifyOptions tunes CertifyLivelock. The zero value is ready to use.
type CertifyOptions struct {
	// Mode selects the closing drive the cycle is certified under. The zero
	// value is DriveReliable, the paper's livelock notion; DriveAdversarial
	// certifies the cycle under the recorded schedule's drop-everything
	// continuation instead.
	Mode DriveMode
	// DriveBudget bounds the closing drive's rounds; <= 0 means
	// DefaultDriveBudget.
	DriveBudget int
	// Pump is how many cycle repetitions the verification replay checks;
	// <= 0 means DefaultPump.
	Pump int
}

func (o CertifyOptions) withDefaults() CertifyOptions {
	if o.DriveBudget <= 0 {
		o.DriveBudget = DefaultDriveBudget
	}
	if o.Pump <= 0 {
		o.Pump = DefaultPump
	}
	return o
}

// CertifyLivelock replays l, drives the closing extension selected by
// opts.Mode (reliable by default), and — if the system strands a message
// while looping through a repeated joint configuration — returns the
// pumping-lemma certificate. The certificate is verified before it is
// returned: its cycle pumped opts.Pump times must replay with zero
// divergence, stay safety-clean, and still fail the quiescent DL3 check.
// Traces that recover, stall without a cycle, or violate safety are refused
// with a diagnosis.
func CertifyLivelock(l *trace.Log, opts CertifyOptions) (*LivelockCert, error) {
	opts = opts.withDefaults()
	// Most traces handed here are refused, so the refusal is decided
	// unrecorded; only a certifiable trace is re-driven with recording, on
	// the same executor, for the events the certificate is cut from.
	x, err := execFor(l)
	if err != nil {
		return nil, err
	}
	judged, err := x.close(l.Events, opts.Mode, opts.DriveBudget)
	if err != nil {
		return nil, err
	}
	if err := refuse(judged); err != nil {
		return nil, err
	}
	out, err := x.closeDrive(l, opts.Mode, opts.DriveBudget)
	if err != nil {
		return nil, err
	}
	if err := refuse(out); err != nil {
		// Cannot happen: the executor drove the same deterministic execution.
		// Guard anyway rather than cut a certificate from a refused drive.
		return nil, err
	}
	cert := &LivelockCert{
		Protocol:    out.Log.Meta[trace.MetaProtocol],
		Mode:        opts.Mode,
		RepeatedKey: out.RepeatedKey,
		Prefix:      append([]trace.Event(nil), out.Log.Events[:out.CycleStart]...),
		Cycle:       append([]trace.Event(nil), out.Log.Events[out.CycleStart:out.CycleEnd]...),
		DL3:         out.DL3,
	}
	cert.PrefixOps = countOps(cert.Prefix)
	cert.CycleOps = countOps(cert.Cycle)
	if cert.CycleOps == 0 {
		return nil, fmt.Errorf("replay: repeated configuration with an empty cycle (stalled, not cycling); nothing to pump")
	}

	// Pump verification — the certificate must prove itself by replay, since
	// state keys are protocol-supplied and could in principle under-report.
	rr, err := x.run(cert.Pumped(opts.Pump))
	if err != nil {
		return nil, fmt.Errorf("replay: verifying pumped certificate: %w", err)
	}
	if rr.Divergence != nil {
		return nil, fmt.Errorf("replay: cycle does not pump: replay diverged at %v", rr.Divergence)
	}
	if rr.Verdict != nil {
		return nil, fmt.Errorf("replay: pumped certificate violates %s; refusing to certify it as a livelock", rr.Verdict.Property)
	}
	if rr.DL3 == nil {
		return nil, fmt.Errorf("replay: pumped certificate delivers everything; cycle is not a livelock")
	}
	return cert, nil
}

// refuse diagnoses a closing-drive outcome that certifies no livelock: a
// safety violation, a recovery, or a stranding without a repeated
// configuration. It returns nil for a stranding cycle.
func refuse(out *DriveOutcome) error {
	var r refusal
	if !r.diagnose(out, out.Safety, out.DL3 != nil) {
		return nil
	}
	kept := r // r stays on the stack, so a drive that cycles allocates none
	return &kept
}

// refusal is refuse's diagnosis. It formats only when read: the fuzzer
// refuses about half its candidates and only checks the error for nil.
type refusal struct {
	safety                       *ioa.Violation
	recovered, quiescent         bool
	mode                         DriveMode
	rounds, delivered, submitted int
}

// diagnose sets r to the refusal of out, whose driven execution violates
// safety (nil when it is safe) and strands a message or not, and reports
// whether out is refused: false for a safe stranding cycle.
func (r *refusal) diagnose(out *DriveOutcome, safety *ioa.Violation, strands bool) bool {
	if safety == nil && strands && out.CycleFound {
		return false
	}
	*r = refusal{
		safety: safety, recovered: !strands, mode: out.Mode, quiescent: out.Quiescent,
		rounds: out.Rounds, delivered: out.Delivered, submitted: out.Submitted,
	}
	return true
}

func (r *refusal) Error() string {
	switch {
	case r.safety != nil:
		return fmt.Sprintf("replay: driven trace violates %s; livelock certification wants a safety-clean liveness failure (use Shrink for safety violations): %v",
			r.safety.Property, r.safety)
	case r.recovered:
		return fmt.Sprintf("replay: protocol recovers under the %s closing drive (quiescent=%v after %d rounds, %d/%d delivered); no livelock to certify",
			r.mode, r.quiescent, r.rounds, r.delivered, r.submitted)
	default:
		return fmt.Sprintf("replay: %d message(s) stranded but no joint configuration repeated within %d drive rounds; cannot certify a pumping cycle",
			r.submitted-r.delivered, r.rounds)
	}
}
