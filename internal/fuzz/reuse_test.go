package fuzz

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/replay"
	"repro/internal/trace"
)

// TestExecuteAllocCeilings caps what one execution allocates on a warmed
// Core, for each SeedInputs entry under seqnum and altbit: an unlogged
// Execute, which returns the Core's own result and grows no candidate or
// queue storage it already has, and Execute plus refuseLivelock, whose
// closing drive reuses one sightings log and builds its refusal text only
// when read.
func TestExecuteAllocCeilings(t *testing.T) {
	ceilings := [...]struct{ exec, refuse float64 }{{9, 12}, {8, 14}, {7, 10}}
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

// TestUnloggedResultOutlivesLoggedExecute: the campaign reads an unlogged
// result's points and decision counts after promote re-executes the input
// with a log on the same Core, so a logged Execute must leave the Core's
// unlogged result as it was.
func TestUnloggedResultOutlivesLoggedExecute(t *testing.T) {
	p, err := replay.LookupProtocol("altbit")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(p)
	ins := benchCorpus(32)
	for i, in := range ins {
		res := c.Execute(in, false)
		want := *res
		want.Points = slices.Clone(res.Points)
		c.Execute(ins[(i+1)%len(ins)], true)
		if !slices.Equal(res.Points, want.Points) || res.DataUsed != want.DataUsed || res.AckUsed != want.AckUsed ||
			res.Verdict != want.Verdict || res.DL3 != want.DL3 || res.StaleHits != want.StaleHits {
			t.Fatalf("input %d: a logged Execute changed the unlogged result", i)
		}
	}
}

// scribble overwrites every element of c's slices up to their capacity,
// and its corruption gene, with values no valid genotype holds.
func scribble(c *Input) {
	ops := c.Ops[:cap(c.Ops)]
	for i := range ops {
		ops[i] = Op{Kind: 0xff, Dir: 0xff, Pick: 0xff}
	}
	for _, s := range [][]trace.Decision{c.Data[:cap(c.Data)], c.Ack[:cap(c.Ack)]} {
		for i := range s {
			s[i] = 0xff
		}
	}
	if g := c.Corrupt; g != nil {
		g.TPick, g.RPick = 0xff, 0xff
		for _, s := range [][]uint8{g.Data[:cap(g.Data)], g.Ack[:cap(g.Ack)]} {
			for i := range s {
				s[i] = 0xff
			}
		}
	}
}

// TestMutationSharesNoMemory: a candidate shares no memory with its
// parents. Clone leaves headroom that the growing operators fill in
// place, so writing a candidate's slices out to their capacity must leave
// every parent's encoding unchanged, for each operator applied the way
// Mutate applies it (to a clone), for MutateCorrupt, Mutate and Crossover.
func TestMutationSharesNoMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parents := make([]*Input, 0, 64)
	for len(parents) < cap(parents) {
		in := randomValidInput(rng)
		if len(parents)%2 == 1 {
			MutateCorrupt(in, rng)
		}
		parents = append(parents, in)
	}
	check := func(label string, i int, cand *Input, ps ...*Input) {
		t.Helper()
		before := make([][]byte, len(ps))
		for k, p := range ps {
			before[k] = p.Encode()
		}
		scribble(cand)
		for k, p := range ps {
			if !bytes.Equal(p.Encode(), before[k]) {
				t.Fatalf("%s, parent %d: writing the candidate changed its parent", label, i)
			}
		}
	}
	for i, p := range parents {
		for _, m := range mutators {
			c := p.Clone()
			m.apply(c, rng)
			check(m.name, i, c, p)
		}
		c := p.Clone()
		MutateCorrupt(c, rng)
		check("MutateCorrupt", i, c, p)
		check("Mutate", i, Mutate(p, rng), p)
		other := parents[(i+1)%len(parents)]
		check("Crossover", i, Crossover(p, other, rng), p, other)
	}
}
