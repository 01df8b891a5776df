package channel

import (
	"repro/internal/ioa"
	"repro/internal/trace"
)

// This file connects channel policies to the trace subsystem: Capture
// records every policy verdict into a trace log, and FromDecisions replays
// a recorded verdict stream as a policy.
//
// Together they close the record→replay loop for the channel: a policy's
// decision sequence is the *only* nondeterminism in a simulated execution
// (the endpoint automata are deterministic and the runner's scheduling is
// fixed), so capturing it makes any run — including a probabilistic or
// adversarial one — reproducible bit for bit.

// Capture wraps pol so that every verdict is also emitted to tlog as a
// trace Decision event for channel direction d, in consultation order. The
// wrapped policy's behaviour is unchanged.
func Capture(pol Policy, d ioa.Dir, tlog *trace.Log) Policy {
	return PolicyFunc(func(p ioa.Packet) Decision {
		dec := pol.OnSend(p)
		tlog.Emit(trace.Event{Kind: trace.KindDecision, Dir: d, Decision: dec})
		return dec
	})
}

// FromDecisions replays a recorded decision stream as a Policy. Once the
// stream is exhausted — which happens when a shrunk or edited trace makes
// the protocol send more packets than the recording did — every further
// packet gets the fallback decision. Delay is the conservative fallback for
// replaying attacks: it strands the extra copies instead of inventing
// deliveries the recording never made.
func FromDecisions(decisions []trace.Decision, fallback Decision) Policy {
	i := 0
	return PolicyFunc(func(ioa.Packet) Decision {
		if i < len(decisions) {
			d := decisions[i]
			i++
			return d
		}
		return fallback
	})
}

// Counting wraps pol so that *n is incremented on every OnSend consultation.
// The fuzzer uses it to learn how many decisions an execution actually
// consumed on each channel, so mutated decision streams can be trimmed to
// their live prefix before they enter the corpus.
func Counting(pol Policy, n *int) Policy {
	return PolicyFunc(func(p ioa.Packet) Decision {
		*n++
		return pol.OnSend(p)
	})
}

// DecisionReplayer is a reusable, allocation-free equivalent of
// Counting(FromDecisions(dec, fallback), n): it replays a recorded decision
// stream with a fallback once exhausted, counting consultations. replay's
// pooled executor binds one per channel per execution instead of building
// the four-closure tower anew; Bind rewinds it.
type DecisionReplayer struct {
	dec      []trace.Decision
	fallback Decision
	n        *int
	i        int
}

// Bind points the replayer at a new decision stream and consultation
// counter and rewinds it.
func (d *DecisionReplayer) Bind(dec []trace.Decision, fallback Decision, n *int) {
	d.dec, d.fallback, d.n, d.i = dec, fallback, n, 0
}

// OnSend implements Policy.
func (d *DecisionReplayer) OnSend(ioa.Packet) Decision {
	*d.n++
	if d.i < len(d.dec) {
		v := d.dec[d.i]
		d.i++
		return v
	}
	return d.fallback
}
