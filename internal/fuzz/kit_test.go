package fuzz

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/replay"
	"repro/internal/seed"
)

// answer renders what a campaign's Result says: its counts, then per
// violation its property, corruption, ops, cycle ops, discovery exec and the
// fnv64a of its certificate's bytes, then its errors. A parallel campaign
// merges its workers' results in arrival order, so its corpus, coverage and
// DL3 counts follow scheduling and are left out.
func answer(t *testing.T, res *Result, parallel bool) string {
	t.Helper()
	s := fmt.Sprintf("execs=%d", res.Execs)
	if !parallel {
		s += fmt.Sprintf(" corpus=%d cover=%d dl3=%d", res.CorpusSize, res.CoveragePoints, res.DL3Misses)
	}
	for _, v := range res.Violations {
		h := fnv.New64a()
		if err := v.Cert.Encode(h); err != nil {
			t.Fatal(err)
		}
		s += fmt.Sprintf(" %s[%s]/%dops/cycle%d@%d/%016x", v.Property, v.Corruption, v.Ops, v.CycleOps, v.FoundAtExec, h.Sum64())
	}
	for _, err := range res.Errors {
		s += " error: " + err.Error()
	}
	return s
}

// TestPooledCampaignsMatchFresh: campaigns run back to back on warm kits,
// alternating protocols, return what each returns on new kits, and nothing a
// Result holds aliases kit storage. Two rounds of five campaigns — an
// altbit attack that stops at its certificate, a sound seqnum campaign, a
// livelock campaign that certifies DL3, a stabnaive campaign from corrupted
// starts and a two-worker sound campaign — each match the same campaign
// run with an empty kit pool, and every Result still renders as it did
// once all ten have run.
func TestPooledCampaignsMatchFresh(t *testing.T) {
	lookup := func(name string) Config {
		p, err := replay.LookupProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Protocol: p, Workers: 1}
	}
	altbit, seqnum, livelock, stabnaive, parallel := lookup("altbit"), lookup("seqnum"), lookup("livelock"), lookup("stabnaive"), lookup("seqnum")
	altbit.Budget, altbit.StopOnViolation = 2000, true
	seqnum.Budget = 600
	livelock.Budget = 1500
	stabnaive.Budget, stabnaive.Corrupt, stabnaive.StopOnViolation = 3000, true, true
	parallel.Budget, parallel.Workers = 1500, 2
	want := []string{"DL1", "", "DL3", "DL1", ""}

	type run struct {
		res    *Result
		answer string
	}
	var runs []run
	for round := int64(0); round < 2; round++ {
		for i, cfg := range []Config{altbit, seqnum, livelock, stabnaive, parallel} {
			cfg.Seed = seed.Split(round+1, "pooled/"+cfg.Protocol.Name())
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := answer(t, res, cfg.Workers > 1)
			if len(res.Violations) == 0 && want[i] != "" || len(res.Violations) > 0 && res.Violations[0].Property != want[i] {
				t.Fatalf("round %d, %s: %s; want a %q violation", round, cfg.Protocol.Name(), got, want[i])
			}

			saved := kits
			kits = new(sync.Pool) // every kit the campaign takes is new
			fresh, err := Run(cfg)
			kits = saved
			if err != nil {
				t.Fatal(err)
			}
			if w := answer(t, fresh, cfg.Workers > 1); got != w {
				t.Fatalf("round %d, %s on warm kits:\n%s\non new kits:\n%s", round, cfg.Protocol.Name(), got, w)
			}
			runs = append(runs, run{res, got})
		}
	}
	for i, r := range runs {
		if got := answer(t, r.res, i%5 == 4); got != r.answer {
			t.Errorf("campaign %d changed after later campaigns ran:\n%s\nwas\n%s", i, got, r.answer)
		}
	}
}
