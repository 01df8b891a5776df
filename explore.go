package nonfifo

import (
	"repro/internal/adversary"
	"repro/internal/explore"
	"repro/internal/transport"
)

// Bounded model checking (see internal/explore).
type (
	// ExploreConfig bounds an exhaustive state-space exploration.
	ExploreConfig = explore.Config
	// ExploreReport is the outcome: a shortest counterexample or a
	// safe-within-bounds certificate.
	ExploreReport = explore.Report
)

// Explore exhaustively enumerates every interleaving of protocol steps and
// channel behaviours within the configured bounds. It returns a shortest
// safety counterexample when one exists, or certifies the protocol safe
// within the bounds (Report.Exhausted). This is the reproduction's
// strongest adversary: the paper's channel nondeterminism, exhausted.
func Explore(p Protocol, cfg ExploreConfig) (ExploreReport, error) {
	return explore.Explore(p, cfg)
}

// Transport layer (see internal/transport): the paper's closing remark,
// "all our results can be extended to transport layer protocols over
// non-FIFO virtual links".
type (
	// SlidingWindowProtocol is a sliding window transport protocol over a
	// non-FIFO virtual link.
	SlidingWindowProtocol = transport.SlidingWindow
)

// SlidingWindow returns a sliding window transport protocol with sequence
// space size s (0 = unbounded) and window w. Finite sequence spaces are
// breakable over non-FIFO virtual links — the transport-layer face of
// Theorem 3.1 — while the unbounded variant is safe.
func SlidingWindow(s, w int) SlidingWindowProtocol { return transport.New(s, w) }

// GoBackN returns a go-back-N transport protocol (no receive buffer,
// cumulative acks) with sequence space size s (0 = unbounded) and window
// w. Like SlidingWindow, any finite sequence space is breakable over a
// non-FIFO virtual link; the cumulative-ack aliasing additionally produces
// deadlocks that Explore's CheckDeadlock option detects.
func GoBackN(s, w int) Protocol { return transport.NewGoBackN(s, w) }

// Induction machinery (the instrumented Theorem 3.1 construction).
type (
	// InductionPhase is one step of the accumulation history.
	InductionPhase = adversary.InductionPhase
	// InductionReport is the outcome of the construction.
	InductionReport = adversary.InductionReport
)

// Induction runs the proof of Theorem 3.1 as an adaptive, instrumented
// procedure: strand `target` copies of every data header the protocol
// uses, then simulate a closing extension out of the stale copies.
func Induction(p Protocol, target, maxMessages int, cfg ReplayConfig) (InductionReport, error) {
	return adversary.Induction(p, target, maxMessages, cfg)
}
