package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/replay"
	"repro/internal/trace"
)

// The fuzz workloads run what nffuzz runs by default: serial fuzz.Run
// campaigns from the canonical seed inputs that stop at the first promoted
// violation, so the mutation loop, coverage admission, promotion (shrink
// included) and livelock certification all run on inputs the fuzzer makes.
// An attack campaign ends at its first certificate; a sound one runs its
// whole budget.
//
// One campaign's cost hinges on its early draws, so a trial runs many
// campaigns, each seeded from the workload seed, and its cost is their
// sum. Stopping matters for the attack: an altbit campaign that keeps going
// shrinks every violating execution, its inputs keep growing, and 1% of
// 300-exec campaigns cost eleven times the mean; 600 such 100-exec
// campaigns still spread 8% in allocation over ten seeds. Stopped
// campaigns certify DL1 after 34 executions on average, and 2000 of them
// spread 6.3%. For seqnum, many short campaigns beat fewer long ones at
// equal cost: 256 of 300 execs spread 3.8%, 96 of 500 7.0%.
type campaignSpec struct {
	proto     string
	campaigns int
	budget    int64 // a cap for the attack, which stops well before it
	// want is the property every campaign must promote, "" for a sound
	// protocol, which must promote nothing.
	want string
}

// fuzzParts is how many parts a fuzz trial is timed in (fastestParts):
// each part of 125 attack or 16 sound campaigns spans dozens of GC cycles.
const fuzzParts = 16

var (
	attackSpec = campaignSpec{proto: "altbit", campaigns: 2000, budget: 2000, want: "DL1"}
	soundSpec  = campaignSpec{proto: "seqnum", campaigns: 256, budget: 300}
)

// configs are the trial's campaigns, each with a seed of its own derived
// from the workload seed.
func (s campaignSpec) configs(seed int64) ([]fuzz.Config, error) {
	p, err := replay.LookupProtocol(s.proto)
	if err != nil {
		return nil, err
	}
	cfgs := make([]fuzz.Config, s.campaigns)
	for i := range cfgs {
		cfgs[i] = fuzz.Config{
			Protocol:        p,
			Workers:         1,
			Budget:          s.budget,
			Seed:            core.SplitSeed(seed, "nfperf/campaign/"+strconv.Itoa(i)),
			StopOnViolation: true,
		}
	}
	return cfgs, nil
}

// campaigns runs the spec's campaigns through fuzz.Run or, traced, through
// the replica.
func campaigns(spec campaignSpec) func(*trial) error {
	return func(t *trial) error {
		cfgs, err := spec.configs(t.seed)
		if err != nil {
			return err
		}
		results := make([]*fuzz.Result, len(cfgs))
		t.start()
		r := &replica{tr: t.tracer()}
		for i, cfg := range cfgs {
			if t.traced {
				results[i] = r.run(cfg)
			} else if results[i], err = fuzz.Run(cfg); err != nil {
				return err
			}
			if (i+1)*fuzzParts/len(cfgs) != i*fuzzParts/len(cfgs) {
				t.lap()
			}
		}
		t.stop()
		checkCampaigns(t, spec, results)
		if t.traced {
			r.layers(t)
		}
		return nil
	}
}

// checkCampaigns gates a trial's campaigns: every attack campaign promoted
// spec.want, every sound one ran its whole budget and promoted nothing, and
// every certificate replays with no divergence to the verdict it claims. A
// campaign that fails a gate counts its executions as failed.
func checkCampaigns(t *trial, spec campaignSpec, results []*fuzz.Result) {
	h := fnv.New64a()
	var execs, dl3 int64
	corpus, cover, found := 0, 0, 0
	for i, res := range results {
		fmt.Fprintln(h, campaignFingerprint(res))
		execs += res.Execs
		corpus += res.CorpusSize
		cover += res.CoveragePoints
		dl3 += res.DL3Misses
		problems := len(t.out.Problems)
		promoted := false
		for _, v := range res.Violations {
			if v.Property == spec.want {
				promoted = true
				found++
			} else {
				t.fail("campaign %d promoted %s", i, v.Property)
			}
			if err := confirm(v.Cert); err != nil {
				t.fail("campaign %d: %s certificate: %v", i, v.Property, err)
			}
		}
		switch {
		case spec.want != "" && !promoted:
			t.fail("campaign %d promoted no %s in %d executions", i, spec.want, res.Execs)
		case spec.want == "" && res.Execs != spec.budget:
			t.fail("campaign %d: %d executions, want %d", i, res.Execs, spec.budget)
		}
		if len(t.out.Problems) > problems {
			t.out.Failed += int(res.Execs)
		}
	}
	if n := len(t.out.Problems); n > 8 {
		t.out.Problems = append(t.out.Problems[:8], fmt.Sprintf("and %d more", n-8))
	}
	t.out.Ops = int(execs)
	t.out.Fingerprint = fmt.Sprintf("campaigns=%d execs=%d corpus=%d cover=%d dl3=%d found=%d outcomes=%016x",
		len(results), execs, corpus, cover, dl3, found, h.Sum64())
}

// campaignFingerprint renders one campaign's deterministic outcome.
func campaignFingerprint(res *fuzz.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "execs=%d corpus=%d cover=%d dl3=%d", res.Execs, res.CorpusSize, res.CoveragePoints, res.DL3Misses)
	for _, v := range res.Violations {
		fmt.Fprintf(&b, " %s/%dops", v.Property, v.Ops)
		if v.CycleOps > 0 {
			fmt.Fprintf(&b, "/cycle%d", v.CycleOps)
		}
		fmt.Fprintf(&b, "@%d", v.FoundAtExec)
	}
	return b.String()
}

// replica re-drives fuzz.Run's serial campaign through the fuzz and replay
// packages' public calls, with a span around each, and must reproduce
// fuzz.Run's Result exactly. It covers the path the fuzz workloads take:
// one worker, clean starts, no corpus or output directory, either setting
// of StopOnViolation. Its counters add up over every campaign it runs.
type replica struct {
	tr *tracer

	inputOps               []int // each execution's operation count
	admitted               int
	promotes, useful       int
	shrinks, shrinkReplays int
	certifies, certified   int
}

// replicaCampaign is the state of one campaign, as fuzz.Run keeps it.
type replicaCampaign struct {
	*replica
	cfg    fuzz.Config
	exec   *fuzz.Core
	cover  map[uint64]struct{}
	corpus []*fuzz.Input
	wins   map[string]*fuzz.Violation
	execs  int64
	dl3    int64
	stop   bool // a violation was promoted under StopOnViolation

	livelockPoints int // coverage points added for certified livelocks
}

func (r *replica) run(cfg fuzz.Config) *fuzz.Result {
	c := &replicaCampaign{
		replica: r,
		cfg:     cfg,
		exec:    fuzz.NewCore(cfg.Protocol),
		cover:   map[uint64]struct{}{},
		wins:    map[string]*fuzz.Violation{},
	}
	r.tr.begin("bench")
	defer r.tr.end()
	for _, in := range fuzz.SeedInputs() {
		if c.execs >= cfg.Budget || c.stop {
			break
		}
		c.step(in)
	}
	rng := rand.New(rand.NewSource(core.SplitSeed(cfg.Seed, "fuzz-worker-0")))
	for c.execs < cfg.Budget && !c.stop {
		r.tr.begin("fuzz.mutate")
		cand := nextCandidate(c.corpus, rng)
		r.tr.end()
		c.step(cand)
	}

	out := &fuzz.Result{Execs: c.execs, CorpusSize: len(c.corpus), CoveragePoints: len(c.cover) + c.livelockPoints, DL3Misses: c.dl3}
	for _, v := range c.wins {
		out.Violations = append(out.Violations, v)
	}
	sort.Slice(out.Violations, func(i, j int) bool { return out.Violations[i].Property < out.Violations[j].Property })
	return out
}

// nextCandidate and pickParent repeat fuzz's unexported candidate choice
// for clean starts, draw for draw: the campaign's trajectory depends on the
// order of its random draws. Replica fidelity checks them.
func nextCandidate(corpus []*fuzz.Input, rng *rand.Rand) *fuzz.Input {
	parent := pickParent(corpus, rng)
	if len(corpus) >= 2 && rng.Intn(10) == 0 {
		other := pickParent(corpus, rng)
		return fuzz.Mutate(fuzz.Crossover(parent, other, rng), rng)
	}
	return fuzz.Mutate(parent, rng)
}

func pickParent(corpus []*fuzz.Input, rng *rand.Rand) *fuzz.Input {
	if len(corpus) == 0 {
		return fuzz.SeedInputs()[0]
	}
	if rng.Intn(2) == 0 && len(corpus) > 16 {
		return corpus[len(corpus)-1-rng.Intn(16)]
	}
	return corpus[rng.Intn(len(corpus))]
}

func (c *replicaCampaign) step(in *fuzz.Input) {
	c.tr.begin("fuzz.exec")
	res := c.exec.Execute(in, false)
	c.tr.end()
	c.execs++
	c.inputOps = append(c.inputOps, len(in.Ops))
	c.observe(in, res)
}

func (c *replicaCampaign) addCover(points []uint64) int {
	fresh := 0
	for _, p := range points {
		if _, ok := c.cover[p]; !ok {
			c.cover[p] = struct{}{}
			fresh++
		}
	}
	return fresh
}

// observe mirrors the campaign's per-execution merge: promotion, coverage
// admission, then livelock promotion.
func (c *replicaCampaign) observe(in *fuzz.Input, res *fuzz.ExecResult) {
	if res.DL3 != nil {
		c.dl3++
	}
	if res.Verdict != nil {
		c.promote(in)
	}
	c.tr.begin("fuzz.admit")
	fresh := c.addCover(res.Points)
	if fresh > 0 {
		c.corpus = append(c.corpus, fuzz.Trim(in, res))
		c.admitted++
	}
	c.tr.end()
	if fresh > 0 && res.Verdict == nil && res.DL3 != nil && c.wins["DL3"] == nil {
		c.promoteLivelock(in)
	}
}

func (c *replicaCampaign) execLog(in *fuzz.Input) *fuzz.ExecResult {
	c.tr.begin("fuzz.exec_log")
	defer c.tr.end()
	return c.exec.Execute(in, true)
}

func (c *replicaCampaign) promote(in *fuzz.Input) {
	c.tr.begin("fuzz.promote")
	defer c.tr.end()
	c.promotes++
	logged := c.execLog(in)
	if logged.Verdict == nil {
		return
	}
	c.tr.begin("replay.shrink")
	sr, err := replay.Shrink(logged.Log)
	c.tr.end()
	if err != nil {
		return
	}
	c.shrinks++
	c.shrinkReplays += sr.Replays
	v := &fuzz.Violation{Property: sr.Property, Cert: sr.Log, Ops: sr.FinalOps, FoundAtExec: c.execs}
	c.stop = c.cfg.StopOnViolation
	if old, ok := c.wins[v.Property]; ok && old.Ops <= v.Ops {
		return
	}
	c.useful++
	c.wins[v.Property] = v
}

func (c *replicaCampaign) certify(l *trace.Log) (*replay.LivelockCert, error) {
	c.tr.begin("replay.certify")
	defer c.tr.end()
	c.certifies++
	cert, err := replay.CertifyLivelock(l, replay.CertifyOptions{})
	if err == nil {
		c.certified++
	}
	return cert, err
}

func (c *replicaCampaign) promoteLivelock(in *fuzz.Input) {
	c.tr.begin("fuzz.livelock")
	defer c.tr.end()
	logged := c.execLog(in)
	if logged.Verdict != nil || logged.DL3 == nil {
		return
	}
	if _, err := c.certify(logged.Log); err != nil {
		return
	}
	c.tr.begin("replay.shrink_liveness")
	sr, err := replay.ShrinkLiveness(logged.Log, replay.DriveReliable)
	c.tr.end()
	if err != nil {
		return
	}
	cert, err := c.certify(sr.Log)
	if err != nil {
		return
	}
	// The campaign adds a coverage point for the cycle's length, new since it
	// certifies one livelock at most; it never matches an execution's point.
	c.livelockPoints++
	c.wins["DL3"] = &fuzz.Violation{Property: "DL3", Cert: cert.Pumped(3), Ops: sr.FinalOps, CycleOps: cert.CycleOps, FoundAtExec: c.execs}
	c.stop = c.cfg.StopOnViolation
}

// layers reports the replica's counts and ratios over the trial.
func (r *replica) layers(t *trial) {
	execs := len(r.inputOps)
	l := map[string]float64{
		"fuzz.exec.violating_ratio":      ratio(r.promotes, execs),
		"fuzz.cover.fresh_ratio":         ratio(r.admitted, execs),
		"fuzz.promote.useful_ratio":      ratio(r.useful, r.promotes),
		"replay.shrink.replays_per_call": ratio(r.shrinkReplays, r.shrinks),
		"replay.certify.success_ratio":   ratio(r.certified, r.certifies),
		"fuzz.alloc_bytes_per_exec":      ratio(int(t.out.AllocBytes), execs),
	}
	sort.Ints(r.inputOps)
	if execs > 0 {
		l["fuzz.exec.input_ops_p50"] = float64(r.inputOps[execs/2])
		l["fuzz.exec.input_ops_p99"] = float64(r.inputOps[execs*99/100])
	}
	t.out.Layers = l
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
