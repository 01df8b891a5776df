//go:build !race

package fuzz

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/replay"
	"repro/internal/seed"
)

// The race detector's instrumentation allocates on its own, and its
// sync.Pool drops pooled items at random, a quarter of the kits put back
// among them. So the ceilings hold in ordinary builds only.

// TestExecuteAllocCeilings demands that one execution on a warmed Core
// allocate nothing, for each SeedInputs entry under seqnum and altbit: an
// unlogged Execute, which returns the Core's own result, resets the
// endpoints in place, submits payloads from a table, grows no queue or
// delivered storage it already has and reads its verdicts off the live
// checker's queries, and Execute plus refuseLivelock, whose closing drive
// reuses one sightings log and whose refusal is the executor's own, its
// text built only when read.
func TestExecuteAllocCeilings(t *testing.T) {
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
			if exec > 0 || refuse > 0 {
				t.Errorf("%s seed input %d: %.0f allocations per Execute, %.0f with refuseLivelock; want none",
					name, i, exec, refuse)
			}
		}
	}
}

// TestWarmCampaignAllocCeiling caps what one of nfperf's campaigns
// allocates on a warm kit: a 300-execution seqnum campaign (fuzz-sound)
// allocates its Result and little else, about 420 bytes, since its corpus
// is copied into the chunks its kit keeps, its verdicts are read off the
// live checker's queries and its livelock refusals are its executor's own;
// an altbit attack stopping at its first certificate (fuzz-attack), about
// 6.5 KB, adds one promotion's shrink and the certificate it keeps. On a
// new kit the seqnum campaign allocates about 230 KB. A warm promotion
// re-executes into the log its Core keeps.
func TestWarmCampaignAllocCeiling(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters allocate")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the kit Run puts back is the next Run's
	for _, c := range []struct {
		proto   string
		budget  int64
		ceiling uint64
	}{
		{"seqnum", 300, 1 << 10},
		{"altbit", 2000, 8 << 10},
	} {
		p, err := replay.LookupProtocol(c.proto)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Protocol: p, Workers: 1, Budget: c.budget, Seed: seed.Split(1, "nfperf/campaign/0"), StopOnViolation: true}
		for warm := 0; warm < 2; warm++ {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		// TotalAlloc counts the whole process, and the runtime now and then
		// allocates a kilobyte or two of its own, so a campaign's bytes are
		// the least of three warm runs.
		var res *Result
		got := uint64(math.MaxUint64)
		for run := 0; run < 3; run++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			r, err := Run(cfg)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if (len(r.Violations) > 0) != (c.proto == "altbit") {
				t.Fatalf("%s campaign: %d violations", c.proto, len(r.Violations))
			}
			if c.proto == "seqnum" && r.Execs != c.budget {
				t.Fatalf("seqnum campaign ran %d of %d execs", r.Execs, c.budget)
			}
			res, got = r, min(got, m1.TotalAlloc-m0.TotalAlloc)
		}
		if got > c.ceiling {
			t.Errorf("a warm %s campaign of %d execs allocated %d bytes; ceiling %d", c.proto, res.Execs, got, c.ceiling)
		}
		t.Logf("a warm %s campaign of %d execs allocated %d bytes", c.proto, res.Execs, got)
	}

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
