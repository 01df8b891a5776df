package fuzz

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/seed"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// Config describes one fuzzing campaign.
type Config struct {
	// Protocol is the protocol under test.
	Protocol protocol.Protocol
	// Workers is the parallel executor count. 1 (the default) runs the
	// fully deterministic serial loop; >1 runs the worker pool, which is
	// deterministic per worker stream but merges results in arrival order.
	Workers int
	// Budget is the total number of input executions across all workers.
	// Defaults to 50000.
	Budget int64
	// Seed is the campaign's root seed; per-worker RNGs are derived with
	// seed.Split(Seed, "fuzz-worker-<i>").
	Seed int64
	// CorpusDir, when non-empty, persists the corpus: existing entries are
	// loaded before fuzzing (resume) and every admitted input is saved.
	CorpusDir string
	// OutDir, when non-empty, receives the shrunk violation certificates as
	// <protocol>-<property>.nft files.
	OutDir string
	// StopOnViolation stops the campaign as soon as the first violation has
	// been promoted.
	StopOnViolation bool
	// Corrupt enables the corrupted-start dimension: candidates may grow a
	// corruption gene (MutateCorrupt), executions with a gene start from the
	// resolved corrupted configuration, and violations are judged against
	// the corruption's amnesty. Off by default — enabling it changes the
	// campaign's RNG trajectory relative to a clean run with the same seed.
	Corrupt bool
	// StringCore forces the legacy string-keyed executor (Execute) instead of
	// the interned Core. The two are phenotype-identical — same coverage
	// points, verdicts and certificates, so the campaign trajectory does not
	// depend on the field — and the differential harness (internal/simdiff)
	// keeps it that way; BenchmarkExecute times the two.
	StringCore bool
	// Stats, when non-nil, receives a progress line every StatsEvery
	// (default 1s).
	Stats      io.Writer
	StatsEvery time.Duration
	// Clock supplies the campaign's notion of time, used only for rate
	// reporting and Result.Elapsed — never for fuzzing decisions. It is an
	// injection seam so the package's library code stays free of ambient
	// clock reads (the wallclock lint enforces this); tests substitute a
	// fake. Defaults to time.Now.
	Clock func() time.Time
}

func (c Config) withDefaults() (Config, error) {
	if c.Protocol == nil {
		return c, fmt.Errorf("fuzz: config needs a protocol")
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Budget <= 0 {
		c.Budget = 50000
	}
	if c.StatsEvery <= 0 {
		c.StatsEvery = time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now //nfvet:allow wallclock (the injectable clock seam's default)
	}
	return c, nil
}

// Violation is one promoted finding: a shrunk, re-recorded, replayable
// counterexample.
type Violation struct {
	// Property is the violated property ("PL1", "DL1", "DL2", or "DL3" for a
	// certified livelock).
	Property string
	// Corruption is the corrupted start the violation needs, as a canonical
	// stabilize key; "" for clean-start findings. Corrupted findings are
	// judged against the corruption's amnesty, not the clean-start checkers.
	Corruption string
	// Cert is the certificate trace: the replay.Shrink output for safety
	// violations, or the pumped pumping-lemma certificate for livelocks.
	Cert *trace.Log
	// Ops is the minimized schedule's driver-operation count. For livelocks
	// this counts the shrunk prefix schedule, not the pumped certificate.
	Ops int
	// CycleOps is the pumping cycle's driver-operation count; 0 for safety
	// violations.
	CycleOps int
	// FoundAtExec is the execution count at discovery.
	FoundAtExec int64
	// Path is the written certificate file ("" when Config.OutDir is unset
	// or the write failed).
	Path string
}

// Result summarizes a campaign.
type Result struct {
	// Execs is the number of input executions performed.
	Execs int64
	// CorpusSize is the number of retained inputs.
	CorpusSize int
	// CoveragePoints is the size of the joint-state coverage set.
	CoveragePoints int
	// Violations holds the promoted findings, one per property (the
	// smallest certificate wins), sorted by property.
	Violations []*Violation
	// DL3Misses counts executions that stranded submitted messages
	// (quiescent-DL3 failures). Almost every partial schedule does, so the
	// raw count is context only; misses that survive the reliable closing
	// drive are promoted to certified livelocks (Violations entries with
	// Property "DL3") — see DESIGN.md §8.
	DL3Misses int64
	// Elapsed is the campaign wall-clock time.
	Elapsed time.Duration
	// Errors lists the campaign's failures in the order they happened:
	// corpus and certificate writes, and shrinks or replays that failed
	// while promoting a finding. The campaign carries on after each; a
	// finding whose promotion failed is missing from Violations.
	Errors []error
}

// campaign is the merger-side state shared by the serial and parallel paths.
type campaign struct {
	cfg    Config
	core   *Core                                     // merger-side interned core, the Run goroutine's kit's
	exec   func(in *Input, withLog bool) *ExecResult // merger-side executor
	master coverSet                                  // the Run goroutine's kit's
	corpus []*Entry
	wins   map[string]*Violation // certificate name → smallest certificate
	errs   []error

	execs     atomic.Int64
	dl3Misses atomic.Int64
	stop      atomic.Bool

	start     time.Time
	lastStats time.Time
}

// Run executes one fuzzing campaign.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	k := takeKit(cfg.Protocol, seed.Split(cfg.Seed, "fuzz-worker-0"))
	defer kits.Put(k)
	c := &campaign{
		cfg:    cfg,
		core:   k.core,
		master: k.cover,
		wins:   make(map[string]*Violation),
		start:  cfg.Clock(),
	}
	c.exec = c.execOn(c.core)

	// Seed the corpus: canonical starting schedules plus any persisted
	// entries from a previous run. Every initial input is executed (and
	// counted against the budget) so resumed campaigns rebuild the exact
	// coverage frontier they left off at.
	initial := SeedInputs()
	if cfg.CorpusDir != "" {
		loaded, err := LoadCorpus(cfg.CorpusDir)
		if err != nil {
			return nil, err
		}
		initial = append(initial, loaded...)
	}
	for _, in := range initial {
		if c.execs.Load() >= cfg.Budget {
			break
		}
		res := c.exec(in, false)
		c.execs.Add(1)
		c.observe(in, res, true)
		if c.stop.Load() {
			break
		}
	}

	if !c.stop.Load() && c.execs.Load() < cfg.Budget {
		if cfg.Workers == 1 {
			c.serial(k)
		} else {
			c.parallel()
		}
	}
	return c.result(), nil
}

// execOn builds an executor closure for the goroutine that owns core: the
// string reference Execute under Config.StringCore, otherwise core itself.
// Cores are not safe for concurrent use, so each worker brings its own; the
// campaign's c.core and c.exec serve the seeding loop, the serial loop and
// the merger-side promotions, which all run on one goroutine. Livelock
// refusals are judged on c.core under either executor.
func (c *campaign) execOn(core *Core) func(in *Input, withLog bool) *ExecResult {
	if c.cfg.StringCore {
		proto := c.cfg.Protocol
		return func(in *Input, withLog bool) *ExecResult { return Execute(proto, in, withLog) }
	}
	return core.Execute
}

// observe merges one execution into the campaign: coverage admission and
// violation promotion. Serial path and merger goroutine both funnel through
// it; in the parallel path it runs only on the merger goroutine, with
// countDL3 false because workers already counted their own misses.
func (c *campaign) observe(in *Input, res *ExecResult, countDL3 bool) {
	if countDL3 && res.DL3 != nil {
		c.dl3Misses.Add(1)
	}
	if res.Verdict != nil {
		c.promote(in, res)
	}
	fresh := c.master.addAll(res.Points)
	if fresh > 0 {
		// in may be a scratch candidate that the next one overwrites, so
		// the corpus keeps a copy.
		kept := Trim(in, res)
		c.corpus = append(c.corpus, &Entry{Input: kept, NewPoints: fresh})
		if err := saveEntry(c.cfg.CorpusDir, kept); err != nil {
			c.errs = append(c.errs, err)
		}
	}
	// Livelock promotion: a safety-clean DL3 miss on a coverage-adding input
	// is a candidate livelock, and the first certified win per campaign is
	// kept. The coverage gate does not make candidates rare: a campaign's
	// frontier keeps moving, and in nfperf's fuzz workloads about half of all
	// executions are candidates. promoteLivelock refuses almost all of them
	// on the campaign's Core, without a log.
	if fresh > 0 && res.Verdict == nil && res.DL3 != nil && c.wins["DL3"] == nil {
		c.promoteLivelock(in)
	}
	c.maybeStats()
}

// promote turns a violating input into a first-class certificate: re-execute
// with trace recording, shrink with the delta-debugging shrinker, and hand
// the result to win. The shrink runs on the campaign's Core, whose executor
// is idle on this goroutine. Corrupted-start violations take their own
// confirmation path (promoteCorrupt).
func (c *campaign) promote(in *Input, res *ExecResult) {
	if !res.Corruption.Clean() {
		c.promoteCorrupt(in)
		return
	}
	logged := c.relog(in)
	if logged.Verdict == nil {
		// Unreachable: execution is deterministic.
		return
	}
	sr, err := c.core.shrink(logged.Log)
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("fuzz: shrinking %s violation: %w", res.Verdict.Property, err))
		return
	}
	v := &Violation{
		Property:    sr.Property,
		Cert:        sr.Log,
		Ops:         sr.FinalOps,
		FoundAtExec: c.execs.Load(),
	}
	c.win(v.Property, v, "%s after %d execs: %d ops after shrink", v.Property, v.FoundAtExec, v.Ops)
}

// relog re-executes a clean violating input with a log for its shrink:
// the string reference Execute under Config.StringCore, otherwise the
// campaign Core's promotion, whose result and log the Core keeps.
func (c *campaign) relog(in *Input) *ExecResult {
	if c.cfg.StringCore {
		return c.exec(in, true)
	}
	return c.core.promotion(in)
}

// promoteCorrupt turns a corrupted-start over-amnesty violation into a
// replay-confirmed certificate. The delta-debugging shrinker is deliberately
// skipped: its oracle is the clean-start checker suite, which fails a
// corrupted run on its first *bought* fault, so shrinking against it would
// minimize toward the wrong finding. Instead stabilize.Witness replays the
// logged execution independently, re-judges it from scratch by the amnesty
// judge, and seals the replay's own re-recorded log as the certificate — it
// opens with the replayable corrupt/poison operations and carries the
// amnesty-level verdict in its metadata, exactly like `nfvet verify
// -stabilize` witnesses. A witness that does not confirm is an error:
// execution is deterministic, so a correct build never reports one.
func (c *campaign) promoteCorrupt(in *Input) {
	logged := c.exec(in, true)
	if logged.Verdict == nil {
		// Unreachable: execution is deterministic.
		return
	}
	cert, err := stabilize.Witness(logged.Log, "fuzz-stabilize", logged.Corruption, logged.Amnesty, logged.Verdict.Property)
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("fuzz: corrupted-start %s witness: %w", logged.Verdict.Property, err))
		return
	}
	v := &Violation{
		Property:    logged.Verdict.Property,
		Corruption:  logged.Corruption.Key(),
		Cert:        cert,
		Ops:         len(in.Ops),
		FoundAtExec: c.execs.Load(),
	}
	// Corrupted findings compete in their own bracket: a clean-start DL1 and
	// a corrupted-start DL1 are different claims (the latter says nothing
	// without its start), so neither should evict the other.
	c.win(v.Property+"-corrupt", v, "%s from corrupted start %s after %d execs: %d ops, amnesty %d",
		v.Property, v.Corruption, v.FoundAtExec, v.Ops, logged.Amnesty)
}

// promoteLivelock tries to turn a safety-clean DL3 miss into a certified,
// pumpable livelock. Most misses are refused, silently: a protocol that
// recovers under the reliable closing drive, or one that strands a dropped
// message without cycling (correct counting protocols never retransmit, so
// a dropped copy is gone but no configuration repeats). The campaign's Core
// judges that closing drive from the input itself, with CertifyLivelock's
// own diagnosis, straight on from the execution it holds in the serial and
// seeding loops; no log is recorded for a refusal. Only an input whose
// drive cycles is re-executed with a log, certified via the pumping-lemma
// certifier (which verifies its own cycle by replay), minimized and
// re-certified, and the *pumped* certificate is what gets recorded and
// written out.
func (c *campaign) promoteLivelock(in *Input) {
	if c.core.refuseLivelock(in) != nil {
		return
	}
	logged := c.exec(in, true)
	if logged.Verdict != nil || logged.DL3 == nil {
		// Unreachable: execution is deterministic.
		return
	}
	// Certify first, shrink after: the liveness shrink replays the closing
	// drive per candidate, and the certifier can still refuse a cycling
	// drive (an empty cycle, or one that does not pump).
	if _, err := replay.CertifyLivelock(logged.Log, replay.CertifyOptions{}); err != nil {
		return
	}
	sr, err := replay.ShrinkLiveness(logged.Log, replay.DriveReliable)
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("fuzz: shrinking livelock trace: %w", err))
		return
	}
	cert, err := replay.CertifyLivelock(sr.Log, replay.CertifyOptions{})
	if err != nil {
		// The minimized schedule lost the pumping cycle. It can only have
		// gotten simpler, so this is unexpected; the finding is dropped, not
		// certified from the unshrunk trace, and the failure is reported.
		c.errs = append(c.errs, fmt.Errorf("fuzz: re-certifying shrunk livelock trace: %w", err))
		return
	}
	v := &Violation{
		Property:    "DL3",
		Cert:        cert.Pumped(replay.DefaultPump),
		Ops:         sr.FinalOps,
		CycleOps:    cert.CycleOps,
		FoundAtExec: c.execs.Load(),
	}
	// Cycle length is a coverage dimension of its own: campaigns that have
	// certified a short cycle still reward inputs reaching longer ones.
	c.master.addAll([]uint64{livelockPoint(cert.CycleOps)})
	c.win("DL3", v, "DL3 after %d execs: livelock, %d-op cycle over %d-op schedule",
		v.FoundAtExec, v.CycleOps, v.Ops)
}

// win keeps v as the finding named name unless one at least as small is
// already kept, writes its certificate to OutDir as <protocol>-<name>.nft,
// and reports it on Stats as "VIOLATION " plus the formatted note. Either
// way, a StopOnViolation campaign stops.
func (c *campaign) win(name string, v *Violation, format string, args ...any) {
	if old, ok := c.wins[name]; !ok || v.Ops < old.Ops {
		if c.cfg.OutDir != "" {
			path := filepath.Join(c.cfg.OutDir, c.cfg.Protocol.Name()+"-"+name+".nft")
			if err := os.MkdirAll(c.cfg.OutDir, 0o755); err != nil {
				c.errs = append(c.errs, fmt.Errorf("fuzz: out dir: %w", err))
			} else if err := trace.WriteFile(path, v.Cert); err != nil {
				c.errs = append(c.errs, fmt.Errorf("fuzz: write certificate: %w", err))
			} else {
				v.Path = path
			}
		}
		c.wins[name] = v
		if c.cfg.Stats != nil {
			if v.Path != "" {
				format, args = format+" -> %s", append(args, v.Path)
			}
			fmt.Fprintf(c.cfg.Stats, "VIOLATION "+format+"\n", args...)
		}
	}
	if c.cfg.StopOnViolation {
		c.stop.Store(true)
	}
}

// pickParent selects a mutation parent: mostly uniform over the corpus, with
// a bias toward the newest entries (the current frontier).
func pickParent(corpus []*Entry, rng *rand.Rand) *Input {
	if len(corpus) == 0 {
		return SeedInputs()[0]
	}
	if rng.Intn(2) == 0 && len(corpus) > 16 {
		return corpus[len(corpus)-1-rng.Intn(16)].Input
	}
	return corpus[rng.Intn(len(corpus))].Input
}

// nextCandidate derives one candidate input from the corpus snapshot into
// cand, the worker's scratch input, with the draws of
// mutate(Crossover(parent, other)) or Mutate(parent): cand is refilled
// from its parents and mutated in place, so a candidate the corpus rejects
// allocates nothing beyond a copy of its parent's corruption gene. With
// corrupt enabled, a third of the candidates additionally get their
// corruption gene mutated — applied after the schedule mutations so the
// gene step never perturbs the clean operators' RNG draws within a
// candidate.
func nextCandidate(cand *Input, corpus []*Entry, rng *rand.Rand, corrupt bool) {
	parent := pickParent(corpus, rng)
	if len(corpus) >= 2 && rng.Intn(10) == 0 {
		other := pickParent(corpus, rng)
		crossover(cand, parent, other, rng)
	} else {
		cand.copyFrom(parent)
	}
	mutate(cand, rng)
	if corrupt && rng.Intn(3) == 0 {
		MutateCorrupt(cand, rng)
	}
}

// kit is what one goroutine of a campaign executes with: the Core (its
// executor, runner, live checker, pair cache and unlogged result), a
// coverage set (the campaign's master set on the Run goroutine, a worker's
// private one otherwise), the loop's generator and its scratch candidate.
// Run and each parallel worker take one from kits and put it back when
// they return, so a process pays for a kit's storage once, not once per
// campaign. Nothing a Result holds points into a kit: the corpus keeps
// Trim's copies and every certificate is a fresh log.
type kit struct {
	core  *Core
	cover coverSet
	rng   *rand.Rand
	cand  *Input
}

// kits holds the kits no campaign is using. The pool keeps each kit's
// grown storage: its Core's pair cache (the FNV midstate of every joint
// key the Core has seen, a pure function of the key's bytes, so valid in
// any campaign), its maps and slices at their largest run's capacity, and
// its coverage set's capacity.
var kits = new(sync.Pool)

// takeKit returns a kit for a campaign of proto whose generator is seeded
// with s: a pooled one, its coverage set cleared, its generator re-seeded
// (a re-seeded source draws what a new one would) and its Core's held
// execution dropped, since the scratch candidate it was held for belongs
// to another campaign now; its Core is replaced if it runs another
// protocol. The pool empty, it builds one.
func takeKit(proto protocol.Protocol, s int64) *kit {
	k, ok := kits.Get().(*kit)
	if !ok {
		return &kit{core: NewCore(proto), cover: make(coverSet), rng: rand.New(rand.NewSource(s)), cand: new(Input)}
	}
	if k.core.proto != proto {
		k.core = NewCore(proto)
	}
	k.core.held = nil
	clear(k.cover)
	k.rng.Seed(s)
	return k
}

// serial is the deterministic single-worker loop, on the Run goroutine's
// kit k. Its candidates share k's scratch input, refilled right before
// each Execute (see Core.held).
func (c *campaign) serial(k *kit) {
	rng, cand := k.rng, k.cand
	for c.execs.Load() < c.cfg.Budget && !c.stop.Load() {
		nextCandidate(cand, c.corpus, rng, c.cfg.Corrupt)
		res := c.exec(cand, false)
		c.execs.Add(1)
		c.observe(cand, res, true)
	}
}

// workerResult is what a worker ships to the merger: the candidate and its
// phenotype. Workers pre-filter against a private coverage set, so most
// executions never produce a message.
type workerResult struct {
	in  *Input
	res *ExecResult
}

// parallel runs the worker pool: Workers executor goroutines, one corpus
// merger. Workers pull corpus snapshots from an atomic pointer, push
// coverage-adding or violating results to the merger, and the merger — the
// only goroutine that touches the master coverage set, the corpus and the
// winners — admits, promotes and republishes.
func (c *campaign) parallel() {
	type snapshot struct{ corpus []*Entry }
	var snap atomic.Pointer[snapshot]
	snap.Store(&snapshot{corpus: c.corpus})

	results := make(chan workerResult, 4*c.cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Per worker: cores are single-goroutine, and the candidate is
			// the worker's scratch.
			k := takeKit(c.cfg.Protocol, seed.Split(c.cfg.Seed, "fuzz-worker-"+strconv.Itoa(id)))
			defer kits.Put(k)
			rng, local, cand, exec := k.rng, k.cover, k.cand, c.execOn(k.core)
			for !c.stop.Load() {
				if c.execs.Add(1) > c.cfg.Budget {
					c.execs.Add(-1)
					return
				}
				nextCandidate(cand, snap.Load().corpus, rng, c.cfg.Corrupt)
				res := exec(cand, false)
				if res.DL3 != nil {
					c.dl3Misses.Add(1)
				}
				// Ship only results that matter: a violation, or coverage new
				// to this worker's view (a superset check of "new globally").
				// The candidate is the worker's scratch and the Core reuses
				// its unlogged result, so the merger gets copies of both.
				if res.Verdict != nil || local.addAll(res.Points) > 0 {
					shipped := *res
					shipped.Points = slices.Clone(res.Points)
					results <- workerResult{in: cand.Clone(), res: &shipped}
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	for wr := range results {
		before := len(c.corpus)
		// DL3 was already counted worker-side (countDL3 false), but the value
		// itself is kept: the merger needs it for livelock promotion.
		c.observe(wr.in, wr.res, false)
		if len(c.corpus) != before {
			snap.Store(&snapshot{corpus: c.corpus})
		}
	}
}

func (c *campaign) maybeStats() {
	if c.cfg.Stats == nil {
		return
	}
	now := c.cfg.Clock()
	if now.Sub(c.lastStats) < c.cfg.StatsEvery {
		return
	}
	c.lastStats = now
	execs := c.execs.Load()
	elapsed := now.Sub(c.start).Seconds()
	rate := float64(execs)
	if elapsed > 0 {
		rate = float64(execs) / elapsed
	}
	fmt.Fprintf(c.cfg.Stats, "execs %d (%.0f/sec) corpus %d coverage %d violations %d\n",
		execs, rate, len(c.corpus), len(c.master), len(c.wins))
}

func (c *campaign) result() *Result {
	r := &Result{
		Execs:          c.execs.Load(),
		CorpusSize:     len(c.corpus),
		CoveragePoints: len(c.master),
		DL3Misses:      c.dl3Misses.Load(),
		Elapsed:        c.cfg.Clock().Sub(c.start),
		Errors:         c.errs,
	}
	//nfvet:allow maprange (violations are sorted by property below)
	for _, v := range c.wins {
		r.Violations = append(r.Violations, v)
	}
	sort.Slice(r.Violations, func(i, j int) bool {
		if r.Violations[i].Property != r.Violations[j].Property {
			return r.Violations[i].Property < r.Violations[j].Property
		}
		return r.Violations[i].Corruption < r.Violations[j].Corruption
	})
	return r
}
