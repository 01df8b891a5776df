package main

import (
	"errors"
	"fmt"

	"repro/internal/replay"
	"repro/internal/trace"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	// run runs one trial: it sets up, calls t.start and t.stop around the
	// timed region, then checks the outputs. Untraced, the timed region is
	// the engine's public entry point; traced (t.traced), it re-drives the
	// same work through the layers' public calls with a span around each.
	run func(t *trial) error
	// pins are known-answer fingerprints by seed: 1 is the default seed
	// and 2 the held-out one.
	pins map[int64]string
}

var workloads = []*workload{
	{
		name: "fuzz-attack",
		why:  "seeded altbit fuzz campaigns: every violating execution is re-executed and shrunk, so promotion and shrink costs show",
		run:  campaigns(attackSpec),
		pins: map[int64]string{
			1: "campaigns=2000 execs=68333 corpus=41562 cover=199058 dl3=51036 found=2000 outcomes=839895cfe9e3c1b3",
			2: "campaigns=2000 execs=67742 corpus=41149 cover=196712 dl3=50486 found=2000 outcomes=77833dbcb2e5c6ec",
		},
	},
	{
		name: "fuzz-sound",
		why:  "seeded seqnum fuzz campaigns: nothing to shrink; mutation, execution and livelock certification dominate",
		run:  campaigns(soundSpec),
		pins: map[int64]string{
			1: "campaigns=256 execs=76800 corpus=47473 cover=319823 dl3=66912 found=0 outcomes=98fc51847f596587",
			2: "campaigns=256 execs=76800 corpus=47528 cover=321860 dl3=67524 found=0 outcomes=0002a5597973a28c",
		},
	},
	{
		name: "prove",
		why:  "exhaustive bounded proofs at large spaces: the prover's visited set, clone and key path; no fuzz code runs",
		run:  proveTrial,
	},
	{
		name: "soak",
		why:  "live UDP sessions under chaos recorded to a shard store: the only workload that crosses the kernel and writes traces",
		run:  soakTrial,
		pins: map[int64]string{
			1: "sessions=2048 delivered=33712 violations=596 dl3=550 events=534861 outcomes=5a1b1c3e5727b8be",
			2: "sessions=2048 delivered=33659 violations=585 dl3=527 events=535153 outcomes=0d4246c65328878b",
		},
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// confirm replays a recorded log and reports an error unless it reproduces
// with no divergence and the verdict it records.
func confirm(l *trace.Log) error {
	rr, err := replay.Run(l)
	switch {
	case err != nil:
		return err
	case rr.Divergence != nil:
		return fmt.Errorf("replay diverges at %v", rr.Divergence)
	case !rr.VerdictMatches:
		return errors.New("replay reaches a different verdict")
	}
	return nil
}
