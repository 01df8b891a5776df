//go:build !race

package fuzz

import (
	"runtime"
	"testing"

	"repro/internal/replay"
	"repro/internal/seed"
)

// The race detector's instrumentation allocates on its own, and its
// sync.Pool drops pooled items at random: a quarter of the kits put back,
// and the fmt printers the DL3 checker's Detail is formatted with. So the
// ceilings hold in ordinary builds only.

// TestExecuteAllocCeilings caps what one execution allocates on a warmed
// Core, for each SeedInputs entry under seqnum and altbit: an unlogged
// Execute, which returns the Core's own result, resets the endpoints in
// place, submits payloads from a table and grows no queue or delivered
// storage it already has, and Execute plus refuseLivelock, whose closing
// drive reuses one sightings log and builds its refusal text only when
// read. What is left is the DL3 checker's eagerly formatted Detail on the
// all-delay input, and the refusal itself.
func TestExecuteAllocCeilings(t *testing.T) {
	ceilings := [...]struct{ exec, refuse float64 }{{0, 1}, {2, 3}, {0, 1}}
	for _, name := range []string{"seqnum", "altbit"} {
		p, err := replay.LookupProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCore(p)
		for i, in := range SeedInputs() {
			for k := 0; k < 3; k++ {
				c.Execute(in, false)
				c.refuseLivelock(in)
			}
			exec := testing.AllocsPerRun(50, func() { c.Execute(in, false) })
			refuse := testing.AllocsPerRun(50, func() {
				c.Execute(in, false)
				c.refuseLivelock(in)
			})
			if exec > ceilings[i].exec || refuse > ceilings[i].refuse {
				t.Errorf("%s seed input %d: %.0f allocations per Execute, %.0f with refuseLivelock; ceilings %.0f and %.0f",
					name, i, exec, refuse, ceilings[i].exec, ceilings[i].refuse)
			}
		}
	}
}

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
