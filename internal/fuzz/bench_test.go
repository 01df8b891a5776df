package fuzz

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/protocol"
)

// BenchmarkFuzzThroughput measures end-to-end throughput (executions per
// second) of campaigns that run their whole budget.
//
// The workers-<n> cases fuzz the sound cntlinear protocol, so nothing is
// promoted: each exec is mutation + execution + coverage merge. b.N is the
// execution budget, so ns/op is ns per fuzzed input and the scaling across
// worker counts is read directly off the op times. Results are recorded in
// EXPERIMENTS.md.
//
// altbit-keepgoing is one fixed single-worker altbit campaign per op with
// StopOnViolation off, so every violating input found over the whole budget
// goes through promotion (logged re-execution, shrink, certification).
// This is the keep-going campaign traffic; a campaign that stops at its
// first certificate never reaches it. ns/op is ns per campaign.
func BenchmarkFuzzThroughput(b *testing.B) {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			res, err := Run(Config{
				Protocol: protocol.NewCntLinear(),
				Workers:  w,
				Budget:   int64(b.N),
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Execs < int64(b.N) && b.N > len(SeedInputs()) {
				b.Fatalf("campaign executed %d of %d budget", res.Execs, b.N)
			}
			b.ReportMetric(float64(res.Execs)/b.Elapsed().Seconds(), "execs/sec")
		})
	}
	b.Run("altbit-keepgoing", func(b *testing.B) {
		const budget = 5000
		for i := 0; i < b.N; i++ {
			res, err := Run(Config{
				Protocol: protocol.NewAltBit(),
				Workers:  1,
				Budget:   budget,
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Execs != budget || len(res.Violations) == 0 || len(res.Errors) > 0 {
				b.Fatalf("campaign ran %d of %d execs, %d violations, errors %v",
					res.Execs, budget, len(res.Violations), res.Errors)
			}
		}
		b.ReportMetric(float64(budget*b.N)/b.Elapsed().Seconds(), "execs/sec")
	})
}

// benchCorpus grows a fixed deterministic schedule corpus: the canonical
// seeds plus mutation chains drawn from a seed-1 RNG.
func benchCorpus(n int) []*Input {
	rng := rand.New(rand.NewSource(1))
	ins := SeedInputs()
	for len(ins) < n {
		ins = append(ins, Mutate(ins[rng.Intn(len(ins))], rng))
	}
	return ins
}

// BenchmarkExecute is the regression guard for the interned core: the
// string-keyed reference executor versus Core.Execute over the identical
// 64-input corpus. The interned/string ns-per-op ratio is the PR's headline
// claim; a future change that narrows it shows up here before it ships.
func BenchmarkExecute(b *testing.B) {
	corpus := benchCorpus(64)
	p := protocol.NewAltBit()
	b.Run("string", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := Execute(p, corpus[i%len(corpus)], false); r == nil {
				b.Fatal("nil result")
			}
		}
	})
	b.Run("interned", func(b *testing.B) {
		c := NewCore(p)
		for i := 0; i < b.N; i++ {
			if r := c.Execute(corpus[i%len(corpus)], false); r == nil {
				b.Fatal("nil result")
			}
		}
	})
}
