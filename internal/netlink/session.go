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

// worker is the lock-step session driver, and the session state a soak
// worker reuses for every session it runs, reset at each session's start:
// the runner, its live checker, the log the runner records into, the read
// timer and buffer, the two ChaosConns, the mux inbox and the release
// queue. RunSoak makes one per worker goroutine, so a session's log is only
// good until the worker's next session; RunSession makes one per call, so
// the log it returns stays the caller's. A worker lives on one goroutine.
type worker struct {
	sv        *Server
	log       *trace.Log
	check     *ioa.LiveChecker
	runner    *sim.Runner     // nil before the first session
	timer     *time.Timer     // bounds each inbox read; stopped and drained between reads
	buf       []byte          // the client socket's read buffer
	lats      []time.Duration // every latency of w's sessions: each session's Latencies are a suffix
	wbuf      []byte          // the datagram onSend encodes; the write keeps none of it
	data, ack *ChaosConn      // rebound to each session's sockets and seeds
	inbox     chan []byte     // registered with the mux for each session (Server.register)

	// One session's state, reset by run.
	client            *net.UDPConn // the data lane's writer and the ack lane's reader
	dataAddr, ackAddr net.Addr     // where each lane's datagrams go: the mux, the client socket
	pending           []pendingStale
	stats             SessionStats
	ioErr             error
}

func newWorker(sv *Server) *worker {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	return &worker{
		sv:    sv,
		log:   trace.NewLog(nil),
		check: ioa.NewLiveChecker(),
		timer: timer,
		buf:   make([]byte, 64<<10),
		data:  new(ChaosConn),
		ack:   new(ChaosConn),
		inbox: make(chan []byte, inboxDepth),
	}
}

type pendingStale struct {
	dir ioa.Dir
	pkt ioa.Packet
}

// chaosFor derives one direction's chaos configuration: the probabilities
// from cfg.Chaos, the seed split from the session seed by stream name.
func chaosFor(cfg SessionConfig, stream string) ChaosConfig {
	cc := cfg.Chaos
	cc.Seed = seed.Split(cfg.Seed, stream)
	return cc
}

// run runs one session on w and drives it to completion. It opens the
// session's client socket, which stays per session because its address is
// the session's mux key, and registers w's inbox for it; both are released
// when the session ends. The result's Log is w's.
func (w *worker) run(cfg SessionConfig) (*SessionResult, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netlink: client socket: %w", err)
	}
	w.client = conn.(*net.UDPConn)
	key := unmapped(w.client.LocalAddr().(*net.UDPAddr).AddrPort())
	w.sv.register(key, w.inbox)
	defer func() {
		w.sv.unregister(key)
		_ = w.client.Close()
	}()

	cfg = cfg.withDefaults()
	// Data goes out through the client socket to the mux; acks go out
	// through the shared socket, which outlives the session, to the client.
	w.data.rebind(w.client, chaosFor(cfg, "soak/data"))
	w.ack.rebind(w.sv.conn, chaosFor(cfg, "soak/ack"))
	w.dataAddr, w.ackAddr = w.sv.conn.LocalAddr(), w.client.LocalAddr()
	// Reset stamps the protocol only into an empty slot, so the previous
	// session's meta goes with its events.
	w.log.Events = w.log.Events[:0]
	clear(w.log.Meta)
	w.log.SetMeta(trace.MetaKind, SoakTraceKind)
	w.log.SetMeta(trace.MetaSource, "netlink")
	w.check.Reset()
	w.pending = w.pending[:0]
	w.stats, w.ioErr = SessionStats{}, nil
	first := len(w.lats)
	rcfg := sim.Config{
		Protocol:   cfg.Protocol,
		DataPolicy: channel.PolicyFunc(func(p ioa.Packet) channel.Decision { return w.onSend(ioa.TtoR, p) }),
		AckPolicy:  channel.PolicyFunc(func(p ioa.Packet) channel.Decision { return w.onSend(ioa.RtoT, p) }),
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

	// internal/netlink is outside the wallclock lint's deterministic set:
	// sessions touch real sockets, so ambient time is part of the job.
	start := time.Now()
	for i := 0; i < cfg.Messages && res.Err == nil; i++ {
		mstart := time.Now()
		w.runner.SubmitMsg("msg-" + strconv.Itoa(i))
		w.stats.Messages++
		res.Err = w.runToIdle(cfg.Protocol)
		w.lats = append(w.lats, time.Since(mstart))
	}
	if res.Err == nil {
		w.finalDrain()
	}
	w.stats.Elapsed = time.Since(start)
	w.stats.Latencies = w.lats[first:]
	w.stats.Delivered = len(w.runner.Delivered())

	if err := w.check.Safety(); err != nil {
		res.Verdict, _ = ioa.AsViolation(err)
	}
	if err := w.check.DL3Quiescent(); err != nil {
		res.DL3, _ = ioa.AsViolation(err)
	}
	w.log.Emit(trace.VerdictEvent(res.Verdict, res.DL3))
	res.Stats = w.stats
	return res, nil
}

// runToIdle steps the runner until the transmitter confirms every accepted
// message, lifting wire arrivals between operations and force-releasing held
// datagrams when the transmitter is stuck waiting on one. A busy
// transmitter of a registered protocol always has a packet to send
// (protocol.TestContractBusyTransmits), so only a protocol that does not
// retransmit, such as the send-once one TestSoakSessionsPinned runs, gets
// stuck: the forced release is the guard for those.
func (w *worker) runToIdle(p protocol.Protocol) error {
	for steps := 0; w.runner.T.Busy(); steps++ {
		if steps >= sessionStepBudget {
			return fmt.Errorf("%w after %d steps (protocol %s)", ErrSessionStalled, steps, p.Name())
		}
		progressed := w.runner.StepTransmit()
		w.liftPending()
		w.runner.DrainAcks()
		w.liftPending()
		if w.ioErr != nil {
			return w.ioErr
		}
		if !progressed && w.runner.T.Busy() {
			// The transmitter has no enabled output: it is waiting on a
			// datagram the chaos layer is holding. Force one onto the wire,
			// acks first, since a stuck transmitter is usually waiting for
			// one; if nothing is held anywhere, the session is truly stuck.
			if !w.release(ioa.RtoT) && !w.release(ioa.TtoR) {
				return fmt.Errorf("%w: transmitter waiting with nothing held", ErrSessionStalled)
			}
			w.stats.ForcedReleases++
		}
	}
	return nil
}

// lane returns direction dir's chaos writer and the address its datagrams
// go to.
func (w *worker) lane(dir ioa.Dir) (*ChaosConn, net.Addr) {
	if dir == ioa.RtoT {
		return w.ack, w.ackAddr
	}
	return w.data, w.dataAddr
}

// onSend is the wire policy: the channel-policy seam where the model
// consults reality. It performs the real write, waits for the arrivals the
// chaos outcome promises, and renders the outcome as the recorded decision.
func (w *worker) onSend(dir ioa.Dir, p ioa.Packet) channel.Decision {
	conn, addr := w.lane(dir)
	w.wbuf = wire.Append(w.wbuf[:0], p)
	res, err := conn.WriteOutcome(w.wbuf, addr)
	if err != nil {
		// Socket failure: the datagram never made the wire. Drop is the
		// truthful decision; the error aborts the session after this op.
		w.ioErr = err
		return channel.Drop
	}
	switch res.Fate {
	case FateDropped:
		w.stats.ChaosDrops++
		return channel.Drop
	case FateHeld:
		w.stats.ChaosHolds++
		return channel.Delay
	case FateDup:
		w.stats.ChaosDups++
	}
	// Passed (possibly duplicated): the datagram and any released held
	// copies are on the wire. Read them back; copies are matched by value
	// (multiset semantics), so kernel arrival order cannot matter.
	delivered := false
	for i := 0; i < 1+len(res.Released); i++ {
		b, ok := w.read(dir)
		if !ok {
			break // lost or late; a straggler surfaces in a later window
		}
		q, err := wire.Decode(b)
		if err != nil {
			w.stats.WireFiltered++
			continue
		}
		if !delivered && q == p {
			delivered = true
			continue
		}
		w.pending = append(w.pending, pendingStale{dir: dir, pkt: q})
	}
	if !delivered {
		w.stats.WireLost++
		return channel.Drop
	}
	return channel.DeliverNow
}

// read returns the next datagram to arrive on direction dir within
// sessionReadTimeout, or false when none does. Data arrives in w's inbox,
// each datagram already copied out of the pump's buffer; acks arrive at the
// client socket and are copied out of w's buffer, which sessions reuse.
func (w *worker) read(dir ioa.Dir) ([]byte, bool) {
	if dir == ioa.RtoT {
		_ = w.client.SetReadDeadline(time.Now().Add(sessionReadTimeout))
		n, _, err := w.client.ReadFromUDPAddrPort(w.buf)
		if err != nil {
			return nil, false
		}
		b := make([]byte, n)
		copy(b, w.buf[:n])
		return b, true
	}
	w.timer.Reset(sessionReadTimeout)
	select {
	case b := <-w.inbox:
		if !w.timer.Stop() {
			<-w.timer.C
		}
		return b, true
	case <-w.timer.C:
		return nil, false
	}
}

// release puts the oldest datagram held on direction dir onto the wire,
// reads it back, queues it and lifts it. It reports whether anything was
// held.
func (w *worker) release(dir ioa.Dir) bool {
	conn, _ := w.lane(dir)
	if _, ok := conn.ReleaseOne(); !ok {
		return false
	}
	if b, ok := w.read(dir); ok {
		if q, err := wire.Decode(b); err == nil {
			w.pending = append(w.pending, pendingStale{dir: dir, pkt: q})
		} else {
			w.stats.WireFiltered++
		}
	}
	w.liftPending()
	return true
}

// liftPending mirrors arrived released datagrams into the model as stale
// deliveries, in arrival order. An arrival with no in-transit model copy
// (duplicate residue, a straggler whose copy was already dropped) is
// filtered: the model never delivers a copy it does not hold. A stale
// delivery sends nothing, so no policy runs and the queue cannot grow while
// it drains.
func (w *worker) liftPending() {
	for _, ps := range w.pending {
		ch := w.runner.ChData
		if ps.dir == ioa.RtoT {
			ch = w.runner.ChAck
		}
		if ch.Count(ps.pkt) == 0 {
			w.stats.WireFiltered++
			continue
		}
		if err := w.runner.DeliverStale(ps.dir, ps.pkt); err != nil {
			w.stats.WireFiltered++
			continue
		}
		w.stats.StaleLifted++
	}
	w.pending = w.pending[:0]
}

// finalDrain releases every datagram still held by the chaos layer after the
// last message confirms, data then ack each round: the stale copies arrive
// at last, which is exactly when a bounded protocol's DL1 violations surface
// (an old copy re-accepted as new). Releases write directly to the wire (no
// chaos re-roll), so the drain strictly empties the hold queues.
func (w *worker) finalDrain() {
	for released := true; released; {
		data := w.release(ioa.TtoR)
		ack := w.release(ioa.RtoT)
		released = data || ack
	}
}
