package fuzz

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/seed"
	"repro/internal/trace"
)

// TestUnloggedResultOutlivesLoggedExecute: the campaign reads an unlogged
// result's points, decision counts and verdicts after promote re-executes
// the input with a log on the same Core, so logged executions, of that
// input and of another, must leave the Core's unlogged result as it was:
// its violations, which the Core owns and reuses, included.
func TestUnloggedResultOutlivesLoggedExecute(t *testing.T) {
	p, err := replay.LookupProtocol("altbit")
	if err != nil {
		t.Fatal(err)
	}
	copied := func(v *ioa.Violation) *ioa.Violation {
		if v == nil {
			return nil
		}
		c := *v
		return &c
	}
	c := NewCore(p)
	ins := benchCorpus(32)
	verdicts := 0
	for i, in := range ins {
		res := c.Execute(in, false)
		want := *res
		want.Points = slices.Clone(res.Points)
		verdict, dl3 := copied(res.Verdict), copied(res.DL3)
		c.Execute(in, true)
		c.Execute(ins[(i+1)%len(ins)], true)
		if !slices.Equal(res.Points, want.Points) || res.DataUsed != want.DataUsed || res.AckUsed != want.AckUsed ||
			res.Verdict != want.Verdict || res.DL3 != want.DL3 || res.StaleHits != want.StaleHits ||
			!reflect.DeepEqual(res.Verdict, verdict) || !reflect.DeepEqual(res.DL3, dl3) {
			t.Fatalf("input %d: a logged Execute changed the unlogged result", i)
		}
		if res.Verdict != nil {
			verdicts++
		}
	}
	if verdicts == 0 {
		t.Fatal("no unlogged result has a safety verdict; the corpus is too tame to prove anything")
	}
}

// TestUnloggedVerdictsNameLoggedOnes: an unlogged Execute of a clean start
// reads its verdicts off the live checker's queries and leaves their Detail
// out, and the campaign promotes and counts on those verdicts, so each must
// be present exactly when the logged Execute's is, with its Property and
// Index. Every registered protocol runs benchCorpus, SeedInputs first, and
// altbit, stabnaive and stabdl2 run each input from a corrupted start too,
// whose unlogged verdicts the amnesty judge reports in full.
func TestUnloggedVerdictsNameLoggedOnes(t *testing.T) {
	same := func(a, b *ioa.Violation) bool {
		return (a == nil) == (b == nil) && (a == nil || a.Property == b.Property && a.Index == b.Index)
	}
	rng := rand.New(rand.NewSource(5))
	verdicts := map[bool]int{} // corrupted start -> inputs with a verdict
	for _, name := range protocol.Names() {
		p := protocol.Registry()[name]
		ins := benchCorpus(96)
		switch name {
		case "altbit", "stabnaive", "stabdl2":
			for _, in := range ins[:len(ins):len(ins)] {
				c := in.Clone()
				for k := 0; k < 3; k++ {
					MutateCorrupt(c, rng)
				}
				ins = append(ins, c)
			}
		}
		c := NewCore(p)
		for i, in := range ins {
			got := c.Execute(in, false)
			want := Execute(p, in, true)
			if !same(got.Verdict, want.Verdict) || !same(got.DL3, want.DL3) {
				t.Fatalf("%s input %d: unlogged verdicts %v and %v, logged %v and %v", name, i, got.Verdict, got.DL3, want.Verdict, want.DL3)
			}
			if got.Verdict != nil {
				verdicts[in.Corrupt != nil]++
			}
		}
	}
	if verdicts[false] == 0 || verdicts[true] == 0 {
		t.Fatalf("inputs with a verdict, by corrupted start: %v; the corpus is too tame to prove anything", verdicts)
	}
	t.Logf("inputs with a verdict, by corrupted start: %v", verdicts)
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
		c := &campaign{cfg: Config{Protocol: p, Corrupt: name == "stabnaive"}, master: make(coverSet), corpus: newCorpus(), wins: make(map[string]*Violation), core: NewCore(p)}
		c.exec = c.execOn(c.core)
		for _, in := range SeedInputs() {
			c.observe(in, c.exec(in, false), true)
		}
		var admitted [][]byte
		rng := rand.New(rand.NewSource(3))
		cand := new(Input)
		for i := 0; i < 600; i++ {
			nextCandidate(cand, c.corpus.entries, rng, c.cfg.Corrupt)
			c.observe(cand, c.exec(cand, false), true)
			for _, e := range c.corpus.entries[len(admitted):] {
				admitted = append(admitted, e.Input.Encode())
			}
			scribble(cand)
			for k, e := range c.corpus.entries {
				if !bytes.Equal(e.Input.Encode(), admitted[k]) {
					t.Fatalf("%s candidate %d: writing the scratch changed corpus entry %d", name, i, k)
				}
			}
		}
		if len(c.corpus.entries) <= len(SeedInputs()) {
			t.Fatalf("%s: the campaign admitted no candidate", name)
		}
	}
}

// TestKitReseeds: a campaign takes its generator from a pooled kit, which
// re-seeds it, so a kit taken after arbitrary draws (a read position
// included) must yield what rand.New(rand.NewSource(s)) yields. A taken kit
// also holds no coverage and no held execution, and runs the protocol it
// was taken for.
func TestKitReseeds(t *testing.T) {
	same := func(s int64, what string, r *rand.Rand) {
		t.Helper()
		want := rand.New(rand.NewSource(s))
		for i := 0; i < 1000; i++ {
			if g, w := r.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("seed %d, %s generator: draw %d is %d, a new generator draws %d", s, what, i, g, w)
			}
		}
		gb, wb := make([]byte, 7), make([]byte, 7)
		r.Read(gb)
		want.Read(wb)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("seed %d, %s generator: Read gives %x, a new generator %x", s, what, gb, wb)
		}
	}
	altbit, err := replay.LookupProtocol("altbit")
	if err != nil {
		t.Fatal(err)
	}
	seqnum, err := replay.LookupProtocol("seqnum")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: a Put kit is the next Get's
	for i, s := range []int64{1, -7, seed.Split(1, "fuzz-worker-0"), seed.Split(2, "fuzz-worker-3")} {
		used := takeKit(altbit, s+1)
		used.rng.Intn(9)
		used.rng.Perm(5)
		used.rng.Read(make([]byte, 3))
		used.cover.addAll([]uint64{1, 2, 3})
		used.cand.copyFrom(SeedInputs()[1])
		used.core.Execute(used.cand, false)
		kits.Put(used)
		p := []protocol.Protocol{altbit, seqnum}[i%2]
		got := takeKit(p, s) // used, re-seeded, unless the pool dropped it
		if got != used {
			t.Logf("seed %d: the pool dropped the used kit", s)
		}
		if len(got.cover) != 0 || got.core.held != nil || got.core.proto != p {
			t.Fatalf("seed %d: a taken kit holds %d points, held %v, protocol %s; want none, nil, %s",
				s, len(got.cover), got.core.held, got.core.proto.Name(), p.Name())
		}
		same(s, "pooled", got.rng)
		kits.Put(got)

		// The same in place, whatever the pool did.
		r := rand.New(rand.NewSource(s + 2))
		r.Read(make([]byte, 5))
		r.Seed(s)
		same(s, "re-seeded", r)
	}
}
