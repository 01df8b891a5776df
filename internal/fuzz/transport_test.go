package fuzz

import (
	"testing"

	"repro/internal/replay"
	"repro/internal/transport"
)

// TestTransportSmoke is the transport fuzz smoke: a short deterministic
// campaign against each unbounded-sequence-space transport variant (the
// safe ones — finite S is genuinely breakable, per Theorem 3.1 extended to
// the transport layer) must execute its full budget from benign seeds with
// no DL1/safety violation and no codec panic. The corpus round-trips
// through CorpusDir, exercising the input codec on every promoted entry.
func TestTransportSmoke(t *testing.T) {
	for _, name := range []string{"swindow-unbounded-w2", "gbn-unbounded-w2"} {
		t.Run(name, func(t *testing.T) {
			proto, err := replay.LookupProtocol(name)
			if err != nil {
				t.Fatalf("LookupProtocol: %v", err)
			}
			switch proto.(type) {
			case transport.SlidingWindow, transport.GoBackN:
			default:
				t.Fatalf("LookupProtocol(%q) = %T, want a transport descriptor", name, proto)
			}
			res, err := Run(Config{
				Protocol:  proto,
				Workers:   1,
				Budget:    1500,
				Seed:      1,
				CorpusDir: t.TempDir(),
				OutDir:    t.TempDir(),
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Execs < 1500 {
				t.Fatalf("campaign executed %d of 1500 budget", res.Execs)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("unbounded %s violated safety under fuzzing: %v", name, res.Violations)
			}
			t.Logf("%s: %d execs, corpus %d, coverage %d", name, res.Execs, res.CorpusSize, res.CoveragePoints)
		})
	}
}

// TestTransportFuzzFindsWrapAlias is the positive control for the smoke
// test: the finite-sequence-space sliding window (s=4, w=2) is breakable —
// a delayed s0 copy aliases sequence 4 after wrap — and the fuzzer must
// rediscover that DL1 from the same benign seeds, certificate included.
func TestTransportFuzzFindsWrapAlias(t *testing.T) {
	res := runCampaign(t, transport.New(4, 2), "DL1", 60000)
	t.Logf("swindow-s4-w2 DL1 found after %d execs, corpus %d, coverage %d",
		res.Execs, res.CorpusSize, res.CoveragePoints)
}
