package simdiff

import (
	"math/rand"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/protocol"
	"repro/internal/seed"
	"repro/internal/transport"
)

// specimens returns every protocol the harness holds to its reference:
// the full registry, the deliberately broken livelock protocol, and two
// transport protocols (whose endpoints render the mod-S control-key
// quotient).
func specimens() []protocol.Protocol {
	var ps []protocol.Protocol
	for _, name := range protocol.Names() {
		ps = append(ps, protocol.Registry()[name])
	}
	ps = append(ps,
		protocol.NewLivelock(),
		transport.New(4, 2),
		transport.NewGoBackN(4, 2),
	)
	return ps
}

// schedules builds the deterministic input sweep for one protocol: the
// canonical seeds, a mutation chain grown from them (benign-to-adversarial
// — stale replays and drop storms arrive via the mutators), and a
// corrupted-start variant of every chain step.
func schedules(p protocol.Protocol, n int) []*fuzz.Input {
	rng := rand.New(rand.NewSource(seed.Split(42, "simdiff-"+p.Name())))
	ins := fuzz.SeedInputs()
	parents := ins
	for len(ins) < n {
		parent := parents[rng.Intn(len(parents))]
		cand := fuzz.Mutate(parent, rng)
		ins = append(ins, cand)
		parents = append(parents, cand)
		// Corrupted-start sibling: same schedule, corrupted gene on top.
		cc := cand.Clone()
		fuzz.MutateCorrupt(cc, rng)
		ins = append(ins, cc)
	}
	return ins
}

// TestExecEquivalence replays the schedule sweep of every specimen through
// the string executor and one pooled interned core per protocol, demanding
// bit-identical phenotypes: event streams, coverage points, verdicts,
// decision usage and amnesty bookkeeping.
func TestExecEquivalence(t *testing.T) {
	for _, p := range specimens() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			c := fuzz.NewCore(p)
			verdicts := 0
			for i, in := range schedules(p, 120) {
				if err := CompareExec(p, c, in); err != nil {
					t.Fatalf("input %d (%s): %v", i, in, err)
				}
				if r := fuzz.Execute(p, in, false); r.Verdict != nil {
					verdicts++
				}
			}
			t.Logf("%s: %d schedules diverged on none (%d with safety verdicts)", p.Name(), 120, verdicts)
		})
	}
}

// TestExecEquivalenceOnWitness drives the sweep until a safety verdict
// appears for a protocol that is known attackable (altbit falls to stale
// replay), then holds both cores to the identical violation. This pins the
// harness to a DL1-class witness rather than relying on the sweep to find
// one by luck.
func TestExecEquivalenceOnWitness(t *testing.T) {
	p := protocol.NewAltBit()
	rng := rand.New(rand.NewSource(seed.Split(7, "simdiff-witness")))
	c := fuzz.NewCore(p)
	parents := fuzz.SeedInputs()
	for i := 0; i < 5000; i++ {
		cand := fuzz.Mutate(parents[rng.Intn(len(parents))], rng)
		parents = append(parents, cand)
		res := fuzz.Execute(p, cand, false)
		if res.Verdict == nil {
			continue
		}
		if err := CompareExec(p, c, cand); err != nil {
			t.Fatalf("witness input (verdict %s): %v", res.Verdict.Property, err)
		}
		t.Logf("witness found after %d candidates: %s at event %d", i+1, res.Verdict.Property, res.Verdict.Index)
		return
	}
	t.Fatal("no safety verdict within 5000 mutated schedules; altbit should fall to stale replay")
}

// TestCampaignEquivalence runs a whole fuzzing campaign twice — string core
// and interned core, same seed, corrupted-start dimension on — and demands
// the identical trajectory: executions, corpus, coverage frontier and
// promoted findings. Coverage points are the campaign's steering signal, so
// any drift in the interned point computation would diverge the corpora
// within a few hundred executions.
func TestCampaignEquivalence(t *testing.T) {
	run := func(stringCore bool) *fuzz.Result {
		t.Helper()
		res, err := fuzz.Run(fuzz.Config{
			Protocol:   protocol.NewAltBit(),
			Budget:     6000,
			Seed:       99,
			Corrupt:    true,
			StringCore: stringCore,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := run(true), run(false)
	if want.Execs != got.Execs || want.CorpusSize != got.CorpusSize ||
		want.CoveragePoints != got.CoveragePoints || want.DL3Misses != got.DL3Misses {
		t.Fatalf("campaign trajectory diverged:\nstring:   execs %d corpus %d coverage %d dl3 %d\ninterned: execs %d corpus %d coverage %d dl3 %d",
			want.Execs, want.CorpusSize, want.CoveragePoints, want.DL3Misses,
			got.Execs, got.CorpusSize, got.CoveragePoints, got.DL3Misses)
	}
	if len(want.Violations) != len(got.Violations) {
		t.Fatalf("violations: %d (string) vs %d (interned)", len(want.Violations), len(got.Violations))
	}
	for i := range want.Violations {
		w, g := want.Violations[i], got.Violations[i]
		if w.Property != g.Property || w.Corruption != g.Corruption || w.Ops != g.Ops || w.FoundAtExec != g.FoundAtExec {
			t.Fatalf("violation %d: %s/%q ops %d at %d (string) vs %s/%q ops %d at %d (interned)",
				i, w.Property, w.Corruption, w.Ops, w.FoundAtExec, g.Property, g.Corruption, g.Ops, g.FoundAtExec)
		}
	}
}
