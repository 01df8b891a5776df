package fuzz

import (
	"math/rand"
	"slices"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// Mutation operators. Each takes a parent genotype and a worker-local RNG
// and derives a candidate in storage of its own: Mutate and Crossover
// return fresh inputs, and a campaign mutates one scratch input per worker
// in place (nextCandidate). Parents are never modified (they are shared
// across workers through corpus snapshots).
//
// The operator set mirrors the structure of the search space:
//
//   - decision flips explore the channel behaviour lattice
//     (deliver/delay/drop per send);
//   - op insertion/removal/truncation/extension explore the schedule;
//   - stale splicing is the paper's replay move — it is its own operator
//     because almost every interesting violation needs one;
//   - crossover recombines two corpus entries, which is how a "strand
//     copies" prefix from one input meets a "re-deliver late" suffix from
//     another.

var decisions = [...]trace.Decision{trace.DeliverNow, trace.Delay, trace.Drop}

func randDecision(rng *rand.Rand) trace.Decision { return decisions[rng.Intn(len(decisions))] }

func randOp(rng *rand.Rand) Op {
	switch rng.Intn(10) {
	case 0, 1:
		return Op{Kind: OpSubmit}
	case 2, 3, 4:
		return Op{Kind: OpTransmit}
	case 5, 6:
		return Op{Kind: OpDrain}
	default:
		return randStale(rng)
	}
}

func randStale(rng *rand.Rand) Op {
	dir := ioa.TtoR
	if rng.Intn(4) == 0 { // stale acks matter less often; bias toward data
		dir = ioa.RtoT
	}
	return Op{Kind: OpStale, Dir: dir, Pick: uint8(rng.Intn(8))}
}

// capOps enforces MaxOps/MaxDecisions after growth operators.
func capInput(in *Input) *Input {
	if len(in.Ops) > MaxOps {
		in.Ops = in.Ops[:MaxOps]
	}
	if len(in.Data) > MaxDecisions {
		in.Data = in.Data[:MaxDecisions]
	}
	if len(in.Ack) > MaxDecisions {
		in.Ack = in.Ack[:MaxDecisions]
	}
	return in
}

// Mutate derives a candidate from parent by applying 1–3 randomly chosen
// operators.
func Mutate(parent *Input, rng *rand.Rand) *Input { return mutate(parent.Clone(), rng) }

// mutate is Mutate on a candidate of the caller's own — a clone, a
// crossover child, or a campaign's scratch input, none of which shares
// memory with its parents — mutated in place, with Mutate's draws.
func mutate(c *Input, rng *rand.Rand) *Input {
	for n := 1 + rng.Intn(3); n > 0; n-- {
		c = mutateOnce(c, rng)
	}
	if len(c.Ops) == 0 {
		c.Ops = append(c.Ops, Op{Kind: OpSubmit}, Op{Kind: OpTransmit})
	}
	return capInput(c)
}

// mutator is one named mutation operator. Operators mutate the candidate in
// place (callers pass copies) and draw from the worker RNG; the table order
// is part of the campaign determinism contract — reordering or renumbering
// it changes every seeded campaign's trajectory.
type mutator struct {
	name  string
	apply func(c *Input, rng *rand.Rand)
}

var mutators = [...]mutator{
	{"flip-decision", opFlipDecision},
	{"insert-op", opInsertOp},
	{"remove-op", opRemoveOp},
	{"splice-stale", opSpliceStale},
	{"truncate-tail", opTruncateTail},
	{"extend-ops", opExtendOps},
	{"extend-decisions", opExtendDecisions},
	{"duplicate-segment", opDuplicateSegment},
}

func mutateOnce(c *Input, rng *rand.Rand) *Input {
	mutators[rng.Intn(len(mutators))].apply(c, rng)
	return c
}

// opFlipDecision rewrites one channel decision (growing an empty stream).
func opFlipDecision(c *Input, rng *rand.Rand) {
	flipDecision(c, rng)
}

// opInsertOp inserts a random op at a random position.
func opInsertOp(c *Input, rng *rand.Rand) {
	i := rng.Intn(len(c.Ops) + 1)
	c.Ops = slices.Insert(c.Ops, i, randOp(rng))
}

// opRemoveOp removes one op.
func opRemoveOp(c *Input, rng *rand.Rand) {
	if len(c.Ops) > 0 {
		i := rng.Intn(len(c.Ops))
		c.Ops = append(c.Ops[:i], c.Ops[i+1:]...)
	}
}

// opSpliceStale splices a stale re-delivery — the paper's replay move.
func opSpliceStale(c *Input, rng *rand.Rand) {
	i := rng.Intn(len(c.Ops) + 1)
	c.Ops = slices.Insert(c.Ops, i, randStale(rng))
}

// opTruncateTail truncates the schedule tail.
func opTruncateTail(c *Input, rng *rand.Rand) {
	if len(c.Ops) > 1 {
		c.Ops = c.Ops[:1+rng.Intn(len(c.Ops)-1)]
	}
}

// opExtendOps extends the schedule with a random block.
func opExtendOps(c *Input, rng *rand.Rand) {
	for n := 1 + rng.Intn(6); n > 0; n-- {
		c.Ops = append(c.Ops, randOp(rng))
	}
}

// opExtendDecisions extends a decision stream.
func opExtendDecisions(c *Input, rng *rand.Rand) {
	for n := 1 + rng.Intn(4); n > 0; n-- {
		if rng.Intn(2) == 0 {
			c.Data = append(c.Data, randDecision(rng))
		} else {
			c.Ack = append(c.Ack, randDecision(rng))
		}
	}
}

// opDuplicateSegment duplicates a schedule segment (pumping-style repetition).
func opDuplicateSegment(c *Input, rng *rand.Rand) {
	if len(c.Ops) > 0 {
		i := rng.Intn(len(c.Ops))
		j := i + 1 + rng.Intn(len(c.Ops)-i)
		// slices.Insert copes with a segment that aliases the schedule.
		c.Ops = slices.Insert(c.Ops, j, c.Ops[i:j]...)
	}
}

func flipDecision(c *Input, rng *rand.Rand) {
	// Pick uniformly across both streams; grow an empty one instead.
	total := len(c.Data) + len(c.Ack)
	if total == 0 {
		c.Data = append(c.Data, randDecision(rng))
		return
	}
	i := rng.Intn(total)
	if i < len(c.Data) {
		c.Data[i] = randDecision(rng)
	} else {
		c.Ack[i-len(c.Data)] = randDecision(rng)
	}
}

// Crossover splices a prefix of a onto a suffix of b, recombining both
// schedules and both decision streams at independent cut points. The child
// shares no memory with its parents.
func Crossover(a, b *Input, rng *rand.Rand) *Input { return crossover(new(Input), a, b, rng) }

// crossover is Crossover into c's own storage, with Crossover's draws; c
// must not be a or b.
func crossover(c, a, b *Input, rng *rand.Rand) *Input {
	c.Ops = splice(c.Ops[:0], a.Ops, b.Ops, rng)
	c.Data = splice(c.Data[:0], a.Data, b.Data, rng)
	c.Ack = splice(c.Ack[:0], a.Ack, b.Ack, rng)
	// The corrupted-start gene rides with the first parent: a corruption is
	// a property of the whole run (it happens before op 0), so splicing two
	// genes has no schedule-level meaning the way splicing ops does.
	c.Corrupt = a.Corrupt.clone()
	if len(c.Ops) == 0 {
		c.Ops = append(c.Ops, Op{Kind: OpSubmit}, Op{Kind: OpTransmit})
	}
	return capInput(c)
}

// splice appends a prefix of x and a suffix of y, each cut at a random
// point (drawn only for a non-empty slice), to dst.
func splice[E any](dst, x, y []E, rng *rand.Rand) []E {
	i, j := 0, 0
	if len(x) > 0 {
		i = rng.Intn(len(x) + 1)
	}
	if len(y) > 0 {
		j = rng.Intn(len(y) + 1)
	}
	return append(append(dst, x[:i]...), y[j:]...)
}

// SeedInputs returns the initial corpus for any protocol: a handful of plain
// schedules (submit/transmit/drain cycles under all-deliver, all-delay and
// mixed decisions) that exercise the happy path and strand some copies. The
// fuzzer's job is to take it from there; nothing protocol-specific is baked
// in.
func SeedInputs() []*Input {
	cycle := func(msgs, steps int) []Op {
		var ops []Op
		for m := 0; m < msgs; m++ {
			ops = append(ops, Op{Kind: OpSubmit})
			for s := 0; s < steps; s++ {
				ops = append(ops, Op{Kind: OpTransmit}, Op{Kind: OpDrain})
			}
		}
		return ops
	}
	rep := func(d trace.Decision, n int) []trace.Decision {
		s := make([]trace.Decision, n)
		for i := range s {
			s[i] = d
		}
		return s
	}
	return []*Input{
		// Reliable delivery, three messages: the baseline joint-state orbit.
		{Ops: cycle(3, 2), Data: rep(trace.DeliverNow, 8), Ack: rep(trace.DeliverNow, 8)},
		// Delay everything: pure in-transit accumulation.
		{Ops: cycle(2, 3), Data: rep(trace.Delay, 8), Ack: rep(trace.Delay, 8)},
		// Delay the first data copy then deliver the rest: progress with one
		// copy stranded. No stale re-delivery — composing a strand with a
		// later re-delivery is exactly what the fuzzer must discover.
		{
			Ops:  cycle(2, 2),
			Data: append([]trace.Decision{trace.Delay}, rep(trace.DeliverNow, 7)...),
			Ack:  rep(trace.DeliverNow, 8),
		},
	}
}
