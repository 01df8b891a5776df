package fuzz

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/replay"
	"repro/internal/trace"
)

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
// parents. The growing operators extend a candidate in place wherever it
// has room, so writing a candidate's slices out to their capacity must leave
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

// TestCrossoverChildMutatedInPlace: the campaign mutates a crossover child
// in place (mutate) instead of cloning it first (Mutate), with the same
// draws in the same order, so both make the same candidate and leave the
// RNG in the same state.
func TestCrossoverChildMutatedInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		a, b := randomValidInput(rng), randomValidInput(rng)
		if i%3 == 0 {
			MutateCorrupt(a, rng)
		}
		s := rng.Int63()
		r1, r2 := rand.New(rand.NewSource(s)), rand.New(rand.NewSource(s))
		got := mutate(Crossover(a, b, r1), r1)
		want := Mutate(Crossover(a, b, r2), r2)
		if !bytes.Equal(got.Encode(), want.Encode()) || r1.Int63() != r2.Int63() {
			t.Fatalf("pair %d: in-place mutation of the child made %v, Mutate %v", i, got, want)
		}
	}
}

// TestLoggedExecuteReservesItsLog: re-executing the input the Core holds
// with a log records into one allocation, reserved from the held run's
// counts, which bound what the log records; other logged executions grow
// their logs as they go.
func TestLoggedExecuteReservesItsLog(t *testing.T) {
	for _, name := range []string{"altbit", "stabnaive"} {
		p, err := replay.LookupProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCore(p)
		rng := rand.New(rand.NewSource(5))
		for i, in := range benchCorpus(48) {
			if name == "stabnaive" && i%2 == 0 {
				in = in.Clone()
				MutateCorrupt(in, rng)
			}
			res := c.Execute(in, false)
			reserved := len(res.Points) + c.x.Check.Events() + res.DataUsed + res.AckUsed + 1
			if in.Corrupt != nil {
				reserved++
			}
			l := c.Execute(in, true).Log
			if cap(l.Events) != reserved || len(l.Events) > reserved {
				t.Fatalf("%s input %d: logged %d events into capacity %d, reserved %d", name, i, len(l.Events), cap(l.Events), reserved)
			}
			if want := Execute(p, in, true).Log; !bytes.Equal(encodeLog(t, l), encodeLog(t, want)) {
				t.Fatalf("%s input %d: the reserved log differs from Execute's", name, i)
			}
		}
	}
}

func encodeLog(t *testing.T, l *trace.Log) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := l.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCoreShrinkLeavesLaterExecutions: promotion shrinks on the campaign
// Core's executor between two of its executions. The shrink equals
// replay.Shrink, and the Core's later executions — their results, logs and
// livelock refusals — equal those of a Core that never shrank.
func TestCoreShrinkLeavesLaterExecutions(t *testing.T) {
	p, err := replay.LookupProtocol("altbit")
	if err != nil {
		t.Fatal(err)
	}
	var logs []*trace.Log
	for s := int64(1); s <= 4; s++ {
		res, err := Run(Config{Protocol: p, Seed: s, StopOnViolation: true})
		if err != nil || len(res.Violations) == 0 {
			t.Fatalf("seed %d: %v %v", s, res, err)
		}
		logs = append(logs, res.Violations[0].Cert)
	}
	shrinking, plain := NewCore(p), NewCore(p)
	ins := benchCorpus(33)
	for i, in := range ins[:32] {
		next := ins[i+1]
		shrinking.Execute(in, false)
		plain.Execute(in, false)
		l := logs[i%len(logs)]
		got, gerr := shrinking.shrink(l)
		want, werr := replay.Shrink(l)
		if gerr != nil || werr != nil || !bytes.Equal(encodeLog(t, got.Log), encodeLog(t, want.Log)) || got.Replays != want.Replays {
			t.Fatalf("input %d: Core shrink %v (%v), replay.Shrink %v (%v)", i, got, gerr, want, werr)
		}
		// refuseLivelock must re-execute: the shrink replaced the held run.
		if g, w := fmt.Sprint(shrinking.refuseLivelock(in)), fmt.Sprint(plain.refuseLivelock(in)); g != w {
			t.Fatalf("input %d: refusal after a shrink %q, without %q", i, g, w)
		}
		g, w := shrinking.Execute(next, false), plain.Execute(next, false)
		if !slices.Equal(g.Points, w.Points) || !reflect.DeepEqual(g.Verdict, w.Verdict) || !reflect.DeepEqual(g.DL3, w.DL3) ||
			g.DataUsed != w.DataUsed || g.AckUsed != w.AckUsed || g.StaleHits != w.StaleHits {
			t.Fatalf("input %d: the execution after a shrink differs", i)
		}
		if g, w := shrinking.Execute(next, true), plain.Execute(next, true); !bytes.Equal(encodeLog(t, g.Log), encodeLog(t, w.Log)) {
			t.Fatalf("input %d: the logged execution after a shrink differs", i)
		}
	}
}

// TestScratchCandidateMatchesFresh: a campaign derives each candidate into
// one scratch input, refilled and mutated in place, with the draws of the
// fresh derivation through the exported Mutate and Crossover that nfperf's
// replica of the campaign loop makes. Both make the same candidate and
// leave the RNG in the same state.
func TestScratchCandidateMatchesFresh(t *testing.T) {
	fresh := func(corpus []*Entry, rng *rand.Rand, corrupt bool) *Input {
		parent := pickParent(corpus, rng)
		var cand *Input
		if len(corpus) >= 2 && rng.Intn(10) == 0 {
			other := pickParent(corpus, rng)
			cand = Mutate(Crossover(parent, other, rng), rng)
		} else {
			cand = Mutate(parent, rng)
		}
		if corrupt && rng.Intn(3) == 0 {
			MutateCorrupt(cand, rng)
		}
		return cand
	}
	rng := rand.New(rand.NewSource(13))
	var corpus []*Entry
	for i := 0; i < 40; i++ {
		in := randomValidInput(rng)
		if i%3 == 0 {
			MutateCorrupt(in, rng)
		}
		corpus = append(corpus, &Entry{Input: in})
	}
	for _, corrupt := range []bool{false, true} {
		cand := new(Input)
		for i := 0; i < 2000; i++ {
			s := rng.Int63()
			r1, r2 := rand.New(rand.NewSource(s)), rand.New(rand.NewSource(s))
			nextCandidate(cand, corpus[:1+i%len(corpus)], r1, corrupt)
			want := fresh(corpus[:1+i%len(corpus)], r2, corrupt)
			if !bytes.Equal(cand.Encode(), want.Encode()) || r1.Int63() != r2.Int63() {
				t.Fatalf("corrupt %t, candidate %d: the scratch holds %v, the fresh derivation made %v", corrupt, i, cand, want)
			}
		}
	}
}

// TestAdmittedEntriesShareNoScratch: the campaign mutates one scratch
// candidate in place and admits copies of it, so writing the scratch out to
// its capacity after each admission leaves every corpus entry's encoding as
// it was admitted.
func TestAdmittedEntriesShareNoScratch(t *testing.T) {
	for _, name := range []string{"altbit", "stabnaive"} {
		p, err := replay.LookupProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		c := &campaign{cfg: Config{Protocol: p, Corrupt: name == "stabnaive"}, master: make(coverSet), wins: make(map[string]*Violation), core: NewCore(p)}
		c.exec = c.execOn(c.core)
		for _, in := range SeedInputs() {
			c.observe(in, c.exec(in, false), true)
		}
		var admitted [][]byte
		rng := rand.New(rand.NewSource(3))
		cand := new(Input)
		for i := 0; i < 600; i++ {
			nextCandidate(cand, c.corpus, rng, c.cfg.Corrupt)
			c.observe(cand, c.exec(cand, false), true)
			for _, e := range c.corpus[len(admitted):] {
				admitted = append(admitted, e.Input.Encode())
			}
			scribble(cand)
			for k, e := range c.corpus {
				if !bytes.Equal(e.Input.Encode(), admitted[k]) {
					t.Fatalf("%s candidate %d: writing the scratch changed corpus entry %d", name, i, k)
				}
			}
		}
		if len(c.corpus) <= len(SeedInputs()) {
			t.Fatalf("%s: the campaign admitted no candidate", name)
		}
	}
}
