// Package adversary implements the paper's lower-bound constructions
// (Mansour & Schieber, PODC '89, Sections 3–5) as executable attack
// procedures against concrete protocols.
//
// The heart of every proof in the paper is the same move: the physical
// layer "simulates" an extension β of the execution by replaying delayed
// in-transit copies of the packets the protocol would have sent, producing
// an execution with rm(α') = sm(α') + 1 — an invalid execution that
// violates the safety property DL1. ReplaySearch performs that move as a
// memoized depth-first search over stale-copy deliveries and returns a
// machine-checkable Certificate when it succeeds.
//
// HeaderBudget packages the Theorem 3.1 construction: accumulate in-transit
// copies of every header in the protocol's (bounded) alphabet, then run the
// replay search. Pump packages the Theorem 2.1 mechanism: run the
// optimal-from-now channel and detect a repeated joint endpoint state
// before any message is delivered, which certifies a pumpable livelock.
package adversary

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// ErrNoTrace is returned when an attack that must produce a checkable
// certificate is run against a runner without trace recording.
var ErrNoTrace = errors.New("adversary: runner must be created with RecordTrace")

// Certificate is a machine-checkable witness of a safety violation: a
// complete execution trace together with the checker verdict and the replay
// sequence that produced it.
type Certificate struct {
	// Protocol is the attacked protocol's name.
	Protocol string `json:"protocol"`
	// Trace is the full invalid execution.
	Trace ioa.Trace `json:"trace"`
	// Violation is the checker verdict on Trace (always non-nil).
	Violation *ioa.Violation `json:"violation"`
	// Replayed lists the stale copies delivered, in order.
	Replayed []ioa.Packet `json:"replayed"`
	// ExtraDeliveries lists payloads delivered beyond the valid ones.
	ExtraDeliveries []string `json:"extraDeliveries,omitempty"`
	// Log is the replayable event log of the violating execution, ending in
	// the checker verdict. It is present when the attacked runner carried a
	// trace log (sim.Config.TraceLog) or the construction was run with
	// ReplayConfig.RecordOps; internal/replay re-drives it and
	// replay.Shrink minimizes it. Serialized via the NFT trace format, not
	// JSON.
	Log *trace.Log `json:"-"`
}

// String renders a human-readable certificate.
func (c *Certificate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "VIOLATION CERTIFICATE — protocol %s\n", c.Protocol)
	fmt.Fprintf(&b, "verdict: %v\n", c.Violation)
	fmt.Fprintf(&b, "replayed stale copies:")
	for _, p := range c.Replayed {
		fmt.Fprintf(&b, " %s", p)
	}
	b.WriteByte('\n')
	if len(c.ExtraDeliveries) > 0 {
		fmt.Fprintf(&b, "spurious deliveries: %v\n", c.ExtraDeliveries)
	}
	fmt.Fprintf(&b, "execution (%d events):\n%s", len(c.Trace), c.Trace.String())
	return b.String()
}

// Recheck independently re-verifies the certificate through BOTH checker
// formulations: the hand-coded property checkers of internal/ioa and the
// specification automata of internal/spec must each reject the recorded
// trace (the spec formulation is at least as strict, so a genuine
// violation fails both).
func (c *Certificate) Recheck() error {
	err := ioa.CheckSafety(c.Trace)
	if err == nil {
		return errors.New("adversary: certificate trace passes the safety checkers")
	}
	v, ok := ioa.AsViolation(err)
	if !ok {
		return fmt.Errorf("adversary: unexpected checker error: %w", err)
	}
	if c.Violation == nil || v.Property != c.Violation.Property {
		return fmt.Errorf("adversary: certificate property %v does not match recheck %v", c.Violation, v)
	}
	if spec.CheckTraceSafety(c.Trace) == nil {
		return errors.New("adversary: certificate trace conforms to the specification automata")
	}
	return nil
}

// ReplayConfig bounds the replay search.
type ReplayConfig struct {
	// MaxDepth is the maximum number of stale copies delivered along one
	// branch. Defaults to 16.
	MaxDepth int
	// MaxNodes caps the total number of explored deliveries. Defaults to
	// 1 << 16.
	MaxNodes int
	// RecordOps attaches a replayable trace log to the internally
	// constructed runner of HeaderBudget and Induction, so a successful
	// attack's Certificate carries a Log. ReplaySearch itself records
	// whenever the caller's runner has a TraceLog, regardless of this flag.
	RecordOps bool
}

func (c ReplayConfig) withDefaults() ReplayConfig {
	if c.MaxDepth == 0 {
		c.MaxDepth = 16
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 1 << 16
	}
	return c
}

// ReplayReport is the outcome of a replay search.
type ReplayReport struct {
	// Cert is the violation certificate, or nil if the protocol resisted
	// every explored replay schedule.
	Cert *Certificate
	// Nodes is the number of stale deliveries explored.
	Nodes int
	// Truncated reports whether the search hit MaxNodes before exhausting
	// the (memoized) state space.
	Truncated bool
}

// ReplaySearch explores deliveries of stale in-transit copies on the t→r
// channel to the receiver, looking for an extension of the current
// execution that violates safety (DL1/DL2). This is the executable form of
// the proofs' "the extension β can be simulated by the physical layer". The
// caller's runner must record traces; it is never mutated.
func ReplaySearch(r *sim.Runner, cfg ReplayConfig) (ReplayReport, error) {
	if r.Recorder() == nil {
		return ReplayReport{}, ErrNoTrace
	}
	cfg = cfg.withDefaults()
	var rep ReplayReport
	visited := make(map[string]bool)

	var dfs func(f *sim.Runner, path []ioa.Packet, depth int) *Certificate
	dfs = func(f *sim.Runner, path []ioa.Packet, depth int) *Certificate {
		if depth >= cfg.MaxDepth {
			return nil
		}
		for _, p := range f.ChData.Packets() {
			if rep.Nodes >= cfg.MaxNodes {
				rep.Truncated = true
				return nil
			}
			rep.Nodes++
			child := f.Fork(channel.DelayAll(), channel.DelayAll())
			if err := child.DeliverStale(ioa.TtoR, p); err != nil {
				// Impossible: p was listed as in transit.
				continue
			}
			newPath := append(append([]ioa.Packet(nil), path...), p)
			if err := ioa.CheckSafety(child.Recorder().Trace()); err != nil {
				v, _ := ioa.AsViolation(err)
				cert := &Certificate{
					Protocol:        protocolName(r),
					Trace:           child.Recorder().Trace(),
					Violation:       v,
					Replayed:        newPath,
					ExtraDeliveries: extraDeliveries(r, child),
				}
				if tl := child.TraceLog(); tl != nil {
					// The fork chain cloned the op log along the winning
					// branch; seal it with the verdict.
					cl := tl.Clone()
					cl.Emit(trace.VerdictEvent(v, nil))
					cert.Log = cl
				}
				return cert
			}
			key := protocol.StateKey(child.R) + "\x1f" + child.ChData.Key()
			if !visited[key] {
				visited[key] = true
				if c := dfs(child, newPath, depth+1); c != nil {
					return c
				}
			}
		}
		return nil
	}

	rep.Cert = dfs(r, nil, 0)
	return rep, nil
}

// opsLog returns a fresh trace log when cfg asks for op recording.
func opsLog(cfg ReplayConfig) *trace.Log {
	if !cfg.RecordOps {
		return nil
	}
	return trace.NewLog(nil)
}

func protocolName(r *sim.Runner) string {
	// The transmitter's state key begins with the protocol's type tag;
	// extract a short name from it for certificates.
	key := protocol.StateKey(r.T)
	if i := strings.IndexByte(key, '{'); i > 0 {
		return strings.TrimSuffix(key[:i], "T")
	}
	return key
}

func extraDeliveries(before, after *sim.Runner) []string {
	b, a := before.Delivered(), after.Delivered()
	if len(a) <= len(b) {
		return nil
	}
	return append([]string(nil), a[len(b):]...)
}

// PumpReport is the outcome of a Pump run (Theorem 2.1's mechanism).
type PumpReport struct {
	// Closed reports that the optimal-from-now extension delivered the
	// outstanding message; Cost is its sp^{t→r} count.
	Closed bool
	Cost   int
	// Pumped reports that a joint endpoint state repeated before any
	// delivery: the channel can loop the segment between the repeats
	// forever, so the execution extends to an infinite one with no
	// receive_msg — a liveness (DL3) violation witness.
	Pumped bool
	// RepeatedState is the joint state key that recurred.
	RepeatedState string
	// Steps is the number of optimal-channel steps taken.
	Steps int
}

// Pump runs the optimal-from-now channel behaviour from the runner's
// current (semi-valid) state and watches the joint endpoint state after
// every step. It terminates with Closed when the outstanding message is
// confirmed, or with Pumped when a joint state repeats without progress —
// the pumping argument in the proof of Theorem 2.1. The caller's runner is
// never mutated.
func Pump(r *sim.Runner, budget int) (PumpReport, error) {
	f := r.Fork(channel.Reliable(), channel.Reliable())
	if !f.T.Busy() {
		return PumpReport{Closed: true}, nil
	}
	start := f.Result().Metrics.TotalDataPackets
	startDelivered := len(f.Delivered())
	seen := map[string]bool{jointKey(f): true}
	for steps := 1; steps <= budget; steps++ {
		progressed := f.StepTransmit()
		f.DrainAcks()
		if !f.T.Busy() {
			return PumpReport{
				Closed: true,
				Cost:   f.Result().Metrics.TotalDataPackets - start,
				Steps:  steps,
			}, nil
		}
		if !progressed {
			return PumpReport{}, errors.New("adversary: pump: transmitter busy with no enabled output")
		}
		if len(f.Delivered()) > startDelivered {
			// Progress: restart repeat detection (the theorem's γ has no
			// receive_msg actions).
			startDelivered = len(f.Delivered())
			seen = make(map[string]bool)
		}
		key := jointKey(f)
		if seen[key] {
			return PumpReport{Pumped: true, RepeatedState: key, Steps: steps}, nil
		}
		seen[key] = true
	}
	return PumpReport{}, fmt.Errorf("adversary: pump: no repeat and no close within %d steps", budget)
}

func jointKey(f *sim.Runner) string {
	return protocol.StateKey(f.T) + "\x1f" + protocol.StateKey(f.R)
}

// HeaderBudgetReport is the outcome of the Theorem 3.1 construction.
type HeaderBudgetReport struct {
	// Bounded is false when the protocol's alphabet grows with the number
	// of messages, making the construction inapplicable (the protocol
	// "pays" with ≥ n headers instead — the theorem's other horn).
	Bounded bool
	// HeadersAccumulated lists the data headers with stranded copies.
	HeadersAccumulated []string
	// CopiesPerHeader is the number of stranded copies per header.
	CopiesPerHeader int
	// Replay is the replay-search outcome over the accumulated copies.
	Replay ReplayReport
}

// HeaderBudget runs the Theorem 3.1 construction against a protocol: over
// `messages` deliveries, delay the first `copies` copies of every distinct
// data header (accumulating stale copies of the protocol's whole alphabet),
// then search for a replay schedule that produces an invalid execution.
//
// For a protocol with an unbounded alphabet the construction is
// inapplicable and the report says so — that protocol already pays the
// theorem's price in headers.
func HeaderBudget(p protocol.Protocol, copies, messages int, cfg ReplayConfig) (HeaderBudgetReport, error) {
	if _, bounded := p.HeaderBound(); !bounded {
		return HeaderBudgetReport{Bounded: false}, nil
	}
	r := sim.NewRunner(sim.Config{
		Protocol:    p,
		DataPolicy:  channel.DelayPerHeader(copies),
		RecordTrace: true,
		TraceLog:    opsLog(cfg),
	})
	for i := 0; i < messages; i++ {
		if err := r.RunMessage("m" + fmt.Sprint(i)); err != nil {
			return HeaderBudgetReport{Bounded: true}, fmt.Errorf("adversary: header budget setup: %w", err)
		}
	}
	headers := make(map[string]bool)
	for _, pk := range r.ChData.Packets() {
		headers[pk.Header] = true
	}
	hs := make([]string, 0, len(headers))
	//nfvet:allow maprange (keys are collected then sorted before use)
	for h := range headers {
		hs = append(hs, h)
	}
	sort.Strings(hs)
	rep, err := ReplaySearch(r, cfg)
	if err != nil {
		return HeaderBudgetReport{Bounded: true}, err
	}
	return HeaderBudgetReport{
		Bounded:            true,
		HeadersAccumulated: hs,
		CopiesPerHeader:    copies,
		Replay:             rep,
	}, nil
}
