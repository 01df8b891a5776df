//go:build !race

package fuzz

import (
	"runtime"
	"testing"

	"repro/internal/replay"
	"repro/internal/seed"
)

// The race detector's instrumentation allocates on its own, and its
// sync.Pool drops a quarter of the kits put back, so the ceiling holds in
// ordinary builds only.

// TestWarmCampaignAllocCeiling caps what a 300-execution seqnum campaign,
// nfperf's fuzz-sound campaign, allocates on a warm kit: its corpus, its
// livelock refusals and its DL3 checker's verdicts, not the Core, coverage
// set, generator or candidate a kit keeps. It allocates about 94 KB on a
// warm kit and 260 KB on a new one. A warm promotion re-executes into the
// log its Core keeps.
func TestWarmCampaignAllocCeiling(t *testing.T) {
	const ceiling = 128 << 10
	if testing.CoverMode() != "" {
		t.Skip("coverage counters allocate")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the kit Run puts back is the next Run's
	p, err := replay.LookupProtocol("seqnum")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Protocol: p, Workers: 1, Budget: 300, Seed: seed.Split(1, "nfperf/campaign/0"), StopOnViolation: true}
	var m0, m1 runtime.MemStats
	for warm := 0; warm < 2; warm++ {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m0)
	res, err := Run(cfg)
	runtime.ReadMemStats(&m1)
	if err != nil || res.Execs != cfg.Budget {
		t.Fatalf("campaign: %v, %d execs", err, res.Execs)
	}
	got := m1.TotalAlloc - m0.TotalAlloc
	if got > ceiling {
		t.Errorf("a warm %d-exec seqnum campaign allocated %d bytes; ceiling %d", cfg.Budget, got, ceiling)
	}
	t.Logf("a warm %d-exec seqnum campaign allocated %d bytes", cfg.Budget, got)

	altbit, err := replay.LookupProtocol("altbit")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(altbit)
	for i, in := range benchCorpus(16) {
		c.Execute(in, false)
		first := c.promotion(in).Log
		reserved := cap(first.Events)
		c.Execute(in, false)
		again := c.promotion(in).Log
		if again != first || cap(again.Events) != reserved || &again.Events[:1][0] != &first.Events[:1][0] {
			t.Fatalf("input %d: a second promotion of one input reserved a new log", i)
		}
		if want := Execute(altbit, in, true).Log; string(encodeLog(t, again)) != string(encodeLog(t, want)) {
			t.Fatalf("input %d: the Core's promotion log differs from Execute's", i)
		}
	}
}
