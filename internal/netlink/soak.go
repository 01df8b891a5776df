package netlink

// The soak orchestrator: a worker pool driving many lock-step sessions
// through one Server, recording each session's replayable log into a
// sharded trace store and aggregating throughput/latency/violation figures.
// cmd/nfserve's serve and load verbs are thin wrappers around RunSoak.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/protocol"
	"repro/internal/seed"
	"repro/internal/trace"
)

// SoakConfig describes one soak run.
type SoakConfig struct {
	// Protocols are assigned to sessions round-robin; at least one is
	// required.
	Protocols []protocol.Protocol
	// Sessions is the number of sessions to run; 0 means "until Stop
	// fires" (serve mode) and requires a non-nil Stop.
	Sessions int
	// Messages is the per-session message count. Defaults to 8.
	Messages int
	// Chaos sets the per-direction drop/hold/dup probabilities for every
	// session (seeds are derived per session and direction).
	Chaos ChaosConfig
	// Seed is the root seed; session i runs with
	// seed.Split(Seed, "session/<i>").
	Seed int64
	// Workers bounds concurrently running sessions. Defaults to 16.
	Workers int
	// Store, when non-nil, records every completed session's log under its
	// session name. Zero lost recordings is the soak contract: a Put
	// failure is surfaced as the session's error.
	Store *trace.ShardStore
	// Stop, when non-nil, drains the soak gracefully: no new session starts
	// after it fires, in-flight sessions finish and are recorded.
	Stop <-chan struct{}
	// onResult, when non-nil, observes each outcome as it completes, from
	// the worker goroutines. Tests use it to stop a soak at a fixed point.
	onResult func(SessionOutcome)
}

// SessionName is the shard-store key for soak session id.
func SessionName(id int) string { return fmt.Sprintf("s%06d", id) }

// SessionOutcome summarises one session of a soak run.
type SessionOutcome struct {
	// ID is the session index; Session is its shard-store key.
	ID      int
	Session string
	// Protocol and Seed reproduce the session exactly.
	Protocol string
	Seed     int64
	// Messages and Delivered count send_msg and receive_msg actions.
	Messages, Delivered int
	// Events is the recorded log length.
	Events int
	// Verdict is the violated safety property ("" if safe); DL3 reports a
	// quiescent-liveness miss.
	Verdict string
	DL3     bool
	// Err is a non-empty operational failure (stall, socket error,
	// recording failure).
	Err string
	// Elapsed is the session's wall time.
	Elapsed time.Duration
	// Recorded reports whether the log reached the shard store.
	Recorded bool
}

// SoakReport aggregates a soak run.
type SoakReport struct {
	// Sessions counts sessions started; Completed those without an
	// operational error; Skipped those never started because Stop fired.
	Sessions, Completed, Skipped int
	// Violations counts sessions with a safety verdict; DL3 those with a
	// liveness miss; Errors those with an operational failure.
	Violations, DL3, Errors int
	// Recorded counts logs persisted to the shard store.
	Recorded int
	// Messages and Deliveries aggregate across sessions.
	Messages, Deliveries int
	// Elapsed is the whole run; Throughput is delivered messages per
	// second.
	Elapsed    time.Duration
	Throughput float64
	// LatP50/LatP95/LatMax summarise per-message submit→confirm latency
	// across every session.
	LatP50, LatP95, LatMax time.Duration
	// Outcomes lists every started session, ordered by ID.
	Outcomes []SessionOutcome
}

// RunSoak drives the configured soak through the server's mux and returns
// the aggregated report.
func (sv *Server) RunSoak(cfg SoakConfig) (*SoakReport, error) {
	if len(cfg.Protocols) == 0 {
		return nil, errors.New("netlink: soak needs at least one protocol")
	}
	if cfg.Sessions <= 0 && cfg.Stop == nil {
		return nil, errors.New("netlink: soak needs a session count or a stop channel")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 16
	}

	start := time.Now()
	ids := make(chan int)
	skipped := make(chan int, 1)
	go func() {
		defer close(ids)
		for i := 0; cfg.Sessions <= 0 || i < cfg.Sessions; i++ {
			select {
			case <-cfg.Stop: // nil channel when Stop is unset: never fires
				if cfg.Sessions > 0 {
					skipped <- cfg.Sessions - i
				} else {
					skipped <- 0
				}
				return
			case ids <- i:
			}
		}
		skipped <- 0
	}()

	var (
		mu       sync.Mutex
		outcomes []SessionOutcome
		lats     []time.Duration
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorker()
			for id := range ids {
				out, sessionLats := sv.runSoakSession(cfg, id, w)
				mu.Lock()
				outcomes = append(outcomes, out)
				lats = append(lats, sessionLats...)
				mu.Unlock()
				if cfg.onResult != nil {
					cfg.onResult(out)
				}
			}
		}()
	}
	wg.Wait()

	rep := &SoakReport{Skipped: <-skipped, Elapsed: time.Since(start)}
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].ID < outcomes[j].ID })
	rep.Outcomes = outcomes
	for _, o := range outcomes {
		rep.Sessions++
		rep.Messages += o.Messages
		rep.Deliveries += o.Delivered
		switch {
		case o.Err != "":
			rep.Errors++
		default:
			rep.Completed++
		}
		if o.Verdict != "" {
			rep.Violations++
		}
		if o.DL3 {
			rep.DL3++
		}
		if o.Recorded {
			rep.Recorded++
		}
	}
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(rep.Deliveries) / secs
	}
	rep.LatP50, rep.LatP95, rep.LatMax = latencySummary(lats)
	return rep, nil
}

// runSoakSession runs session id on w with its derived seed and round-robin
// protocol, records the log, and flattens the result into an outcome. The
// log is w's: it is recorded here, before w runs another session, and the
// outcome keeps none of it.
func (sv *Server) runSoakSession(cfg SoakConfig, id int, w *worker) (SessionOutcome, []time.Duration) {
	p := cfg.Protocols[id%len(cfg.Protocols)]
	scfg := SessionConfig{
		Protocol: p,
		Messages: cfg.Messages,
		Chaos:    cfg.Chaos,
		Seed:     seed.Split(cfg.Seed, "session/"+strconv.Itoa(id)),
	}
	out := SessionOutcome{ID: id, Session: SessionName(id), Protocol: p.Name(), Seed: scfg.Seed}
	res, err := sv.runSession(scfg, w)
	if err != nil {
		out.Err = err.Error()
		return out, nil
	}
	out.Messages = res.Stats.Messages
	out.Delivered = res.Stats.Delivered
	out.Events = res.Log.Len()
	out.Elapsed = res.Stats.Elapsed
	if res.Verdict != nil {
		out.Verdict = res.Verdict.Property
	}
	out.DL3 = res.DL3 != nil
	if res.Err != nil {
		out.Err = res.Err.Error()
	}
	if cfg.Store != nil {
		if _, perr := cfg.Store.Put(out.Session, res.Log); perr != nil {
			if out.Err == "" {
				out.Err = perr.Error()
			}
		} else {
			out.Recorded = true
		}
	}
	return out, res.Stats.Latencies
}

// latencySummary reports the p50/p95/max of the given durations (zeros when
// empty). The input is sorted in place.
func latencySummary(lats []time.Duration) (p50, p95, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(f float64) time.Duration {
		i := int(f * float64(len(lats)-1))
		return lats[i]
	}
	return q(0.50), q(0.95), lats[len(lats)-1]
}
