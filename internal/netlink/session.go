package netlink

// Lock-step soak sessions: replayable data-link runs over real UDP.
//
// The free-running stations in netlink.go carry real traffic, but nothing
// about their runs can be re-driven: the wire's nondeterminism never enters
// the simulator's vocabulary. A Session closes that gap. It wraps a
// sim.Runner whose channel policies consult reality: every send does a real
// UDP wire round trip through a seeded ChaosConn, and the chaos outcome is
// lifted back into the model's recorded decision/stale-delivery vocabulary:
//
//	chaos drop            → recorded Drop decision
//	chaos hold            → recorded Delay decision (the model copy stays in
//	                        transit, exactly where the real datagram is)
//	pass, arrived         → recorded DeliverNow decision
//	pass, lost on wire    → recorded Drop decision (wire loss is loss)
//	release of a held/dup → recorded DeliverStale op, once the released
//	                        datagram actually arrives
//
// The session IS a simulator run whose channel behaviour happens to be
// decided by a real socket, so its trace — stamped kind "soak" — is
// operation- and decision-complete: internal/replay re-drives it bit for
// bit, the checkers re-judge it, and the shrinker minimises a misbehaving
// live session into a replayable certificate. That is the repo's
// replay-from-production loop.
//
// Duplication (FateDup) has no multiset counterpart — a non-FIFO channel of
// the paper never duplicates — so a released duplicate is lifted as a stale
// delivery only when the model still has a copy of that value in transit
// (copies are indistinguishable, so this is sound); otherwise the arrival is
// filtered and counted. The lift is count-conserving: the model never
// delivers more copies than it holds, preserving PL1 by construction.
//
// Timing: latency stats read the wall clock, but nothing clock-derived
// enters the NFT log, so two runs with the same seed produce byte-identical
// traces regardless of scheduling. Socket read deadlines are failure
// detectors, not semantics — on loopback, a lock-step session never has
// more datagrams in flight than one write burst, so the deadline only fires
// on genuine loss (and then becomes a recorded Drop, keeping the trace
// replayable anyway).

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/seed"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// SoakTraceKind is the trace.MetaKind value stamped on lock-step session
// logs. "soak" traces are operation- and decision-complete, and
// internal/replay re-drives them.
const SoakTraceKind = "soak"

// ErrSessionStalled is wrapped by session errors when the transmitter stops
// making progress and no held datagram remains to force-release: an
// operational liveness (DL3) failure observed on a live wire.
var ErrSessionStalled = errors.New("netlink: session stalled")

// sessionReadTimeout bounds one blocking wire read. It is a failure
// detector: on loopback the expected datagrams of a lock-step round trip
// arrive in microseconds, so the timeout fires only on genuine loss.
const sessionReadTimeout = 2 * time.Second

// sessionStepBudget bounds transmitter steps per message; each step is a
// wire round trip.
const sessionStepBudget = 1 << 12

// SessionConfig describes one lock-step soak session.
type SessionConfig struct {
	// Protocol selects the data link protocol to run.
	Protocol protocol.Protocol
	// Messages is the number of messages to deliver, with payloads
	// "msg-<i>". Defaults to 8.
	Messages int
	// Chaos sets the drop/hold/dup probabilities applied independently to
	// each direction. The Seed field is ignored; per-direction chaos seeds
	// are derived from Seed below.
	Chaos ChaosConfig
	// Seed makes the whole session deterministic: the two ChaosConn seeds
	// are seed.Split(Seed, "soak/data") and seed.Split(Seed,
	// "soak/ack").
	Seed int64
	// CorruptT/CorruptR select corrupted start states from the protocol's
	// declared corruption space (protocol.Corruptible); zero is the clean
	// start. Stabilize specimens soak from adversarial starts this way.
	CorruptT, CorruptR int
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Messages == 0 {
		c.Messages = 8
	}
	return c
}

// SessionStats are the per-session wire and chaos counters.
type SessionStats struct {
	// Messages and Delivered count send_msg and receive_msg actions.
	Messages, Delivered int
	// ChaosDrops/ChaosHolds/ChaosDups count the chaos fates dealt to writes
	// across both directions.
	ChaosDrops, ChaosHolds, ChaosDups int
	// StaleLifted counts released datagrams lifted into the model as
	// DeliverStale operations.
	StaleLifted int
	// WireFiltered counts arrivals with no in-transit model copy (duplicate
	// residue and late stragglers), absorbed without a model move.
	WireFiltered int
	// WireLost counts passed writes whose datagram missed the arrival
	// window; each became a recorded Drop decision.
	WireLost int
	// ForcedReleases counts held datagrams force-released to unstick the
	// transmitter.
	ForcedReleases int
	// Latencies holds each message's submit→confirm wall-clock duration.
	Latencies []time.Duration
	// Elapsed is the whole session's duration.
	Elapsed time.Duration
}

// SessionResult is the outcome of one soak session.
type SessionResult struct {
	// Log is the replayable NFT event log, kind "soak", with a verdict
	// event appended (safety violation wins over DL3, clean otherwise).
	Log *trace.Log
	// Stats are the wire and chaos counters.
	Stats SessionStats
	// Verdict is the safety check over the session's execution (PL1 both
	// directions, DL1, DL2), judged live as it runs; nil if safe.
	Verdict *ioa.Violation
	// DL3 is the quiescent-liveness check; nil when every submitted message
	// was delivered.
	DL3 *ioa.Violation
	// Err is non-nil if the session failed operationally (stall, socket
	// error). The partial log remains replayable.
	Err error
}

// sessionEnv is the wiring a session drives: the two write paths, which
// the worker's ChaosConns wrap for the session, and the matching read
// paths. Server.runSession builds it over the mux and one client socket per
// session.
type sessionEnv struct {
	dataConn net.PacketConn // the client socket; data pkts → dataAddr
	ackConn  net.PacketConn // the server's shared socket; acks → ackAddr
	dataAddr net.Addr       // the server (receiver-side) address
	ackAddr  net.Addr       // the client (transmitter-side) address
	recvData func() ([]byte, bool)
	recvAck  func() ([]byte, bool)
	close    func()
}

// worker is the session state a soak worker reuses for every session it
// runs, reset at each session's start: the runner, its live checker, the
// log the runner records into, the client socket's read buffer and the two
// ChaosConns. RunSoak makes one per worker goroutine, so a session's log is
// only good until the worker's next session; RunSession makes one per call,
// so the log it returns stays the caller's.
type worker struct {
	log       *trace.Log
	check     *ioa.LiveChecker
	runner    *sim.Runner // nil before the first session
	buf       []byte      // deadlineReader's read buffer
	data, ack *ChaosConn  // rebound to each session's sockets and seeds
}

func newWorker() *worker {
	return &worker{
		log:   trace.NewLog(nil),
		check: ioa.NewLiveChecker(),
		buf:   make([]byte, 64<<10),
		data:  new(ChaosConn),
		ack:   new(ChaosConn),
	}
}

type pendingStale struct {
	dir ioa.Dir
	pkt ioa.Packet
}

// session is the lock-step driver: one session's own state over the
// worker's it runs on. It lives on one goroutine.
type session struct {
	*worker
	cfg     SessionConfig
	env     *sessionEnv
	pending []pendingStale
	stats   SessionStats
	ioErr   error
}

// chaosFor derives one direction's chaos configuration: the probabilities
// from cfg.Chaos, the seed split from the session seed by stream name.
func chaosFor(cfg SessionConfig, stream string) ChaosConfig {
	cc := cfg.Chaos
	cc.Seed = seed.Split(cfg.Seed, stream)
	return cc
}

// deadlineReader returns a single-goroutine blocking read function over
// conn, bounded by sessionReadTimeout, that reads into buf. buf is the
// worker's, reused across calls and across the worker's sessions, so each
// returned datagram is copied out.
func deadlineReader(conn net.PacketConn, buf []byte) func() ([]byte, bool) {
	return func() ([]byte, bool) {
		_ = conn.SetReadDeadline(time.Now().Add(sessionReadTimeout))
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			return nil, false
		}
		b := make([]byte, n)
		copy(b, buf[:n])
		return b, true
	}
}

// runSession resets w for one session, drives the session to completion
// over env and always closes env. The result's Log is w's.
func runSession(cfg SessionConfig, env *sessionEnv, w *worker) *SessionResult {
	cfg = cfg.withDefaults()
	defer env.close()

	w.data.rebind(env.dataConn, chaosFor(cfg, "soak/data"))
	w.ack.rebind(env.ackConn, chaosFor(cfg, "soak/ack"))
	// Reset stamps the protocol only into an empty slot, so the previous
	// session's meta goes with its events.
	w.log.Events = w.log.Events[:0]
	clear(w.log.Meta)
	w.log.SetMeta(trace.MetaKind, SoakTraceKind)
	w.log.SetMeta(trace.MetaSource, "netlink")
	w.check.Reset()
	s := &session{worker: w, cfg: cfg, env: env}
	rcfg := sim.Config{
		Protocol:   cfg.Protocol,
		DataPolicy: channel.PolicyFunc(func(p ioa.Packet) channel.Decision { return s.onSend(ioa.TtoR, p) }),
		AckPolicy:  channel.PolicyFunc(func(p ioa.Packet) channel.Decision { return s.onSend(ioa.RtoT, p) }),
		StepBudget: sessionStepBudget,
		Monitor:    w.check,
		TraceLog:   w.log,
	}
	if w.runner == nil {
		w.runner = sim.NewRunner(rcfg)
	} else {
		w.runner.Reset(rcfg)
	}

	res := &SessionResult{Log: w.log}
	if cfg.CorruptT != 0 || cfg.CorruptR != 0 {
		if err := s.runner.CorruptStart(cfg.CorruptT, cfg.CorruptR); err != nil {
			res.Err = err
			res.Stats = s.stats
			return res
		}
	}

	// internal/netlink is outside the wallclock lint's deterministic set:
	// sessions touch real sockets, so ambient time is part of the job.
	start := time.Now()
	for i := 0; i < cfg.Messages && res.Err == nil; i++ {
		mstart := time.Now()
		s.runner.SubmitMsg("msg-" + strconv.Itoa(i))
		s.stats.Messages++
		res.Err = s.runToIdle()
		s.stats.Latencies = append(s.stats.Latencies, time.Since(mstart))
	}
	if res.Err == nil {
		s.finalDrain()
	}
	s.stats.Elapsed = time.Since(start)
	s.stats.Delivered = len(s.runner.Delivered())

	if err := w.check.Safety(); err != nil {
		res.Verdict, _ = ioa.AsViolation(err)
	}
	if err := w.check.DL3Quiescent(); err != nil {
		res.DL3, _ = ioa.AsViolation(err)
	}
	w.log.Emit(trace.VerdictEvent(res.Verdict, res.DL3))
	res.Stats = s.stats
	return res
}

// runToIdle steps the runner until the transmitter confirms every accepted
// message, lifting wire arrivals between operations and force-releasing held
// datagrams when the transmitter is stuck waiting on one.
func (s *session) runToIdle() error {
	for steps := 0; s.runner.T.Busy(); steps++ {
		if steps >= sessionStepBudget {
			return fmt.Errorf("%w after %d steps (protocol %s)", ErrSessionStalled, steps, s.cfg.Protocol.Name())
		}
		progressed := s.runner.StepTransmit()
		s.liftPending()
		s.runner.DrainAcks()
		s.liftPending()
		if s.ioErr != nil {
			return s.ioErr
		}
		if !progressed && s.runner.T.Busy() {
			// The transmitter has no enabled output: it is waiting on a
			// datagram the chaos layer is holding. Force one onto the wire;
			// if nothing is held anywhere, the session is truly stuck.
			if !s.forceRelease() {
				return fmt.Errorf("%w: transmitter waiting with nothing held", ErrSessionStalled)
			}
		}
	}
	return nil
}

// onSend is the wire policy: the channel-policy seam where the model
// consults reality. It performs the real write, waits for the arrivals the
// chaos outcome promises, and renders the outcome as the recorded decision.
func (s *session) onSend(dir ioa.Dir, p ioa.Packet) channel.Decision {
	conn, addr, recv := s.data, s.env.dataAddr, s.env.recvData
	if dir == ioa.RtoT {
		conn, addr, recv = s.ack, s.env.ackAddr, s.env.recvAck
	}
	res, err := conn.WriteOutcome(wire.Encode(p), addr)
	if err != nil {
		// Socket failure: the datagram never made the wire. Drop is the
		// truthful decision; the error aborts the session after this op.
		s.ioErr = err
		return channel.Drop
	}
	switch res.Fate {
	case FateDropped:
		s.stats.ChaosDrops++
		return channel.Drop
	case FateHeld:
		s.stats.ChaosHolds++
		return channel.Delay
	case FateDup:
		s.stats.ChaosDups++
	}
	// Passed (possibly duplicated): the datagram and any released held
	// copies are on the wire. Read them back; copies are matched by value
	// (multiset semantics), so kernel arrival order cannot matter.
	delivered := false
	for i := 0; i < 1+len(res.Released); i++ {
		b, ok := recv()
		if !ok {
			break // lost or late; a straggler surfaces in a later window
		}
		q, err := wire.Decode(b)
		if err != nil {
			s.stats.WireFiltered++
			continue
		}
		if !delivered && q == p {
			delivered = true
			continue
		}
		s.pending = append(s.pending, pendingStale{dir: dir, pkt: q})
	}
	if !delivered {
		s.stats.WireLost++
		return channel.Drop
	}
	return channel.DeliverNow
}

// liftPending mirrors arrived released datagrams into the model as stale
// deliveries. An arrival with no in-transit model copy (duplicate residue, a
// straggler whose copy was already dropped) is filtered: the model never
// delivers a copy it does not hold.
func (s *session) liftPending() {
	for len(s.pending) > 0 {
		ps := s.pending[0]
		s.pending = s.pending[1:]
		ch := s.runner.ChData
		if ps.dir == ioa.RtoT {
			ch = s.runner.ChAck
		}
		if ch.Count(ps.pkt) == 0 {
			s.stats.WireFiltered++
			continue
		}
		if err := s.runner.DeliverStale(ps.dir, ps.pkt); err != nil {
			s.stats.WireFiltered++
			continue
		}
		s.stats.StaleLifted++
	}
}

// forceRelease puts one held datagram on the wire — acks first, since a
// stuck transmitter is usually waiting for one — reads it back and lifts it.
// It reports whether anything was held.
func (s *session) forceRelease() bool {
	type lane struct {
		conn *ChaosConn
		dir  ioa.Dir
		recv func() ([]byte, bool)
	}
	for _, ln := range []lane{
		{s.ack, ioa.RtoT, s.env.recvAck},
		{s.data, ioa.TtoR, s.env.recvData},
	} {
		if _, ok := ln.conn.ReleaseOne(); !ok {
			continue
		}
		s.stats.ForcedReleases++
		if b, ok := ln.recv(); ok {
			if q, err := wire.Decode(b); err == nil {
				s.pending = append(s.pending, pendingStale{dir: ln.dir, pkt: q})
			} else {
				s.stats.WireFiltered++
			}
		}
		s.liftPending()
		return true
	}
	return false
}

// finalDrain releases every datagram still held by the chaos layer after the
// last message confirms: the stale copies arrive at last, which is exactly
// when a bounded protocol's DL1 violations surface (an old copy re-accepted
// as new). Releases write directly to the wire (no chaos re-roll), so the
// drain strictly empties the hold queues.
func (s *session) finalDrain() {
	for {
		released := false
		for _, ln := range []struct {
			conn *ChaosConn
			dir  ioa.Dir
			recv func() ([]byte, bool)
		}{
			{s.data, ioa.TtoR, s.env.recvData},
			{s.ack, ioa.RtoT, s.env.recvAck},
		} {
			if _, ok := ln.conn.ReleaseOne(); !ok {
				continue
			}
			released = true
			if b, ok := ln.recv(); ok {
				if q, err := wire.Decode(b); err == nil {
					s.pending = append(s.pending, pendingStale{dir: ln.dir, pkt: q})
				} else {
					s.stats.WireFiltered++
				}
			}
			s.liftPending()
		}
		if !released {
			return
		}
	}
}
