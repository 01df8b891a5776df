package fuzz

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"repro/internal/replay"
	"repro/internal/seed"
)

// TestCampaignAnswers pins the fuzz benchmark workloads' campaigns at seed 1,
// as TestProveAnswers pins the prove workload's: campaign i of n runs one
// worker under fuzz.Run with seed.Split(1, "nfperf/campaign/<i>") and stops
// at its first promoted violation. Each campaign is one line, its execs,
// corpus, coverage and DL3 misses, then per violation its property, ops,
// cycle ops, discovery exec and the fnv64a of its certificate's bytes; the
// pin is the fnv64a of all the lines. A change to mutation, coverage,
// admission, promotion or shrink moves a trajectory or a certificate, and
// with it the pin.
func TestCampaignAnswers(t *testing.T) {
	for _, c := range []struct {
		proto     string
		campaigns int
		budget    int64
		want      string
	}{
		{"altbit", 200, 2000, "8dcc58166ae3a24f"},
		{"seqnum", 24, 300, "d2746eb790f7f8ef"},
	} {
		p, err := replay.LookupProtocol(c.proto)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for i := 0; i < c.campaigns; i++ {
			res, err := Run(Config{
				Protocol:        p,
				Workers:         1,
				Budget:          c.budget,
				Seed:            seed.Split(1, "nfperf/campaign/"+strconv.Itoa(i)),
				StopOnViolation: true,
			})
			if err != nil {
				t.Fatalf("%s campaign %d: %v", c.proto, i, err)
			}
			if len(res.Errors) > 0 {
				t.Fatalf("%s campaign %d: %v", c.proto, i, res.Errors)
			}
			line := fmt.Sprintf("execs=%d corpus=%d cover=%d dl3=%d",
				res.Execs, res.CorpusSize, res.CoveragePoints, res.DL3Misses)
			for _, v := range res.Violations {
				ch := fnv.New64a()
				if err := v.Cert.Encode(ch); err != nil {
					t.Fatal(err)
				}
				line += fmt.Sprintf(" %s/%dops/cycle%d@%d/%016x",
					v.Property, v.Ops, v.CycleOps, v.FoundAtExec, ch.Sum64())
			}
			fmt.Fprintln(h, line)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
			t.Errorf("%s: %d campaigns of budget %d pin %s, want %s", c.proto, c.campaigns, c.budget, got, c.want)
		}
	}
}
