// Command nfperf is the repository's benchmark. It runs four seeded
// workloads against the fuzzer (internal/fuzz), the prover (internal/verify)
// and the soak server (internal/netlink), each trial in a fresh child
// process, checks every trial's outputs against known answers, and reports
// end-to-end metrics from untraced trials or per-layer metrics from a
// separate traced run. README.md lists the workloads, metrics and bounds.
//
//	nfperf --workload fuzz-attack --seed 1 --seconds 25 --trace 0
//	nfperf run [-trials 5] [-seed 1] [-workload a,b] [-o res.json]
//	nfperf trace [-trials 3] [-seed 1] [-workload a,b] [-spans dir] [-o res.json]
//	nfperf compare a.json b.json
//
// The first form is the benchmark protocol: one workload, trials until the
// given seconds have passed, and a one-line JSON result as the last line of
// standard output. run and trace cover every workload with a fixed trial
// count, rotating the workload order each round. compare judges two result
// files against the bounds in metrics.go.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runVerb(args[1:], false, out, errw)
		case "trace":
			return runVerb(args[1:], true, out, errw)
		case "compare":
			return compareVerb(args[1:], out, errw)
		case "child":
			return childMain(args[1:], out, errw)
		}
	}
	return protocolMain(args, out, errw)
}

// protocolMain is the benchmark protocol: one workload measured for a fixed
// time, reported as one JSON object on the last line of standard output.
func protocolMain(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("nfperf", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", 25, "measure for this many seconds")
		traced  = fs.Int("trace", 0, "1 runs the traced replica and reports per-layer metrics")
		spans   = fs.String("spans", "", "write the first traced trial's spans under this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(errw, "nfperf: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	res, err := measure([]*workload{w}, options{
		seed:   *seed,
		traced: *traced == 1,
		spans:  *spans,
		more: func(round int, last time.Duration) bool {
			// Start another round only if it should end by the deadline;
			// three rounds is the least a median means anything, and the
			// least that lets each part's fastest time skip a slow spell.
			return round < 3 || time.Now().Add(last).Before(deadline)
		},
	})
	if err != nil {
		fmt.Fprintln(errw, "nfperf:", err)
		return 1
	}
	printSummary(out, res)
	return printLine(out, res.Workloads[0], res.Env.Traced)
}

// runVerb runs every selected workload for a fixed number of rounds.
func runVerb(args []string, traced bool, out, errw io.Writer) int {
	verb := "run"
	if traced {
		verb = "trace"
	}
	fs := flag.NewFlagSet("nfperf "+verb, flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		trials  = fs.Int("trials", 5, "trials per workload")
		seed    = fs.Int64("seed", 1, "workload seed (1 is the default, 2 the held-out seed)")
		names   = fs.String("workload", "", "comma-separated workloads (default: all)")
		outPath = fs.String("o", "", "write the full results as JSON to this path")
		spans   = new(string)
	)
	if traced {
		fs.StringVar(spans, "spans", "", "write each workload's first traced trial's spans under this directory")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloads
	if *names != "" {
		ws = nil
		for _, n := range strings.Split(*names, ",") {
			w, ok := lookupWorkload(n)
			if !ok {
				fmt.Fprintf(errw, "nfperf %s: unknown workload %q (known: %s)\n", verb, n, strings.Join(workloadNames(), ", "))
				return 2
			}
			ws = append(ws, w)
		}
	}
	if *trials < 1 {
		fmt.Fprintf(errw, "nfperf %s: -trials must be at least 1\n", verb)
		return 2
	}
	res, err := measure(ws, options{
		seed:   *seed,
		traced: traced,
		spans:  *spans,
		more:   func(round int, _ time.Duration) bool { return round < *trials },
	})
	if err != nil {
		fmt.Fprintf(errw, "nfperf %s: %v\n", verb, err)
		return 1
	}
	printSummary(out, res)
	if *outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(errw, "nfperf %s: %v\n", verb, err)
			return 1
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(errw, "nfperf %s: %v\n", verb, err)
			return 1
		}
		fmt.Fprintf(out, "wrote %s\n", *outPath)
	}
	for _, wr := range res.Workloads {
		if !wr.Correct {
			return 1
		}
	}
	return 0
}

// Result is a measured set of workloads, as written by run -o and read by
// compare.
type Result struct {
	Env       Env               `json:"env"`
	Workloads []*WorkloadResult `json:"workloads"`
}

// Env records what the numbers were measured on.
type Env struct {
	Nproc int `json:"nproc"`
	// GOMAXPROCS is the trial processes' setting, not the parent's.
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
}

// WorkloadResult is one workload's trials folded into per-metric summaries.
type WorkloadResult struct {
	Name string `json:"name"`
	// Trials counts the measured trials (traced trials in a traced run).
	Trials int `json:"trials"`
	// Attempted and Failed count the workload's operations over all
	// trials: executions, prover runs or soak sessions.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Correct is false when any trial failed a gate, disagreed with the
	// first trial's fingerprint, or (traced) diverged from the untraced
	// run of the same inputs. Problems says why.
	Correct     bool               `json:"correct"`
	Problems    []string           `json:"problems,omitempty"`
	Fingerprint string             `json:"fingerprint"`
	Metrics     map[string]Summary `json:"metrics"`
}

// Summary describes one metric's values over the trials. wall_s has one
// value per run, made from every trial's parts (fastestParts).
type Summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

type options struct {
	seed   int64
	traced bool
	spans  string
	// more reports whether to start round number round (0-based), given
	// how long the previous round took.
	more func(round int, last time.Duration) bool
}

// trialRecord is what the parent keeps of one child trial.
type trialRecord struct {
	out    *trialOut
	setup  float64 // seconds from spawn to the child's first timed call
	traced bool
}

// measure runs rounds of child trials, rotating the workload order each
// round so that no workload always runs right after another. A traced round
// runs an untraced trial and then a traced one on the same inputs.
func measure(ws []*workload, opt options) (*Result, error) {
	dir, err := os.MkdirTemp("", "nfperf-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}

	params := make([]childParams, len(ws))
	for i, w := range ws {
		params[i] = childParams{workload: w.name, seed: opt.seed, dir: dir}
	}

	records := make([][]trialRecord, len(ws))
	var last time.Duration
	for round := 0; opt.more(round, last); round++ {
		start := time.Now()
		for k := range ws {
			i := (k + round) % len(ws)
			kinds := []bool{false}
			if opt.traced {
				kinds = []bool{false, true}
			}
			for _, traced := range kinds {
				p := params[i]
				p.traced = traced
				if traced && round == 0 && opt.spans != "" {
					p.spans = opt.spans
				}
				rec, err := spawnTrial(self, p)
				if err != nil {
					return nil, fmt.Errorf("%s: trial %d: %w", ws[i].name, round, err)
				}
				records[i] = append(records[i], rec)
			}
		}
		last = time.Since(start)
	}

	res := &Result{Env: Env{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: trialProcs,
		GoVersion:  runtime.Version(),
		Seed:       opt.seed,
		Traced:     opt.traced,
	}}
	for i, w := range ws {
		res.Workloads = append(res.Workloads, fold(w, opt.seed, records[i], opt.traced))
	}
	return res, nil
}

// trialProcs is every trial's GOMAXPROCS. The fuzz campaign and the prover
// are single-threaded and the reference container has one CPU; on a 2-vCPU
// machine a second P, which mostly runs concurrent GC, made the attack
// campaign about 15% slower and doubled its trial-to-trial spread, and soak
// sessions, which mostly wait on sockets, were also slower with it.
const trialProcs = 1

// trialTimeout bounds one trial's process, so a hung trial ends the run
// with an error instead of holding it open.
const trialTimeout = 2 * time.Minute

// spawnTrial runs one trial in a fresh child process. Set-up time runs from
// just before the spawn to the child's first timed call, so it includes
// process start and package initialization.
func spawnTrial(self string, p childParams) (trialRecord, error) {
	ctx, cancel := context.WithTimeout(context.Background(), trialTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, p.args()...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", trialProcs))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	spawned := time.Now().UnixNano()
	stdout, err := childOutput(cmd)
	if err != nil {
		return trialRecord{}, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var out trialOut
	if err := json.Unmarshal(stdout, &out); err != nil {
		return trialRecord{}, fmt.Errorf("child output: %w", err)
	}
	return trialRecord{out: &out, setup: float64(out.ReadyUnixNS-spawned) / 1e9, traced: p.traced}, nil
}

// fold turns one workload's trial records into its result: end-to-end
// metrics from untraced trials, or per-layer metrics from traced ones, and
// the correctness verdict over all of them.
func fold(w *workload, seed int64, recs []trialRecord, traced bool) *WorkloadResult {
	wr := &WorkloadResult{Name: w.name, Metrics: map[string]Summary{}}
	values := map[string][]float64{}
	var untracedWall, tracedWall []float64
	var parts [][]int64
	diverged := 0
	for i, rec := range recs {
		o := rec.out
		wr.Attempted += o.Ops
		wr.Failed += o.Failed
		for _, g := range o.Problems {
			wr.Problems = append(wr.Problems, fmt.Sprintf("trial %d: %s", i, g))
		}
		if i == 0 {
			wr.Fingerprint = o.Fingerprint
		} else if o.Fingerprint != wr.Fingerprint {
			if rec.traced {
				diverged++
			} else {
				wr.Problems = append(wr.Problems, fmt.Sprintf("trial %d: fingerprint %q differs from trial 0's %q", i, o.Fingerprint, wr.Fingerprint))
			}
		}
		wall := float64(o.WallNS) / 1e9
		if rec.traced {
			tracedWall = append(tracedWall, wall)
			for name, v := range o.Layers {
				values[name] = append(values[name], v)
			}
			continue
		}
		untracedWall = append(untracedWall, wall)
		values["process.peak_rss_mb"] = append(values["process.peak_rss_mb"], float64(o.PeakRSSKiB)/1024)
		if !traced {
			parts = append(parts, o.PartsNS)
			values["setup_s"] = append(values["setup_s"], rec.setup)
			values["alloc_mb"] = append(values["alloc_mb"], float64(o.AllocBytes)/(1<<20))
		}
	}
	if pin, ok := w.pins[seed]; ok && wr.Fingerprint != pin {
		wr.Problems = append(wr.Problems, fmt.Sprintf("fingerprint %q, want the pinned %q for seed %d", wr.Fingerprint, pin, seed))
	}
	if !traced {
		if fastest, err := fastestParts(parts); err != nil {
			wr.Problems = append(wr.Problems, err.Error())
		} else {
			values["wall_s"] = []float64{fastest}
		}
	}

	defs := endToEnd
	wr.Trials = len(untracedWall)
	if traced {
		defs = perLayer
		wr.Trials = len(tracedWall)
		if diverged > 0 {
			wr.Problems = append(wr.Problems, fmt.Sprintf("diverged: %d traced trial(s) disagree with the untraced fingerprint; layer rows dropped", diverged))
			values = map[string][]float64{}
		}
		if len(tracedWall) > 0 {
			values["trace.wall_s"] = tracedWall
			values["trace.overhead_ratio"] = []float64{median(tracedWall) / median(untracedWall)}
			values["trace.diverged"] = []float64{float64(diverged)}
		}
	}
	for _, d := range defs {
		vs := values[d.Name]
		if len(vs) == 0 {
			vs = []float64{0} // a layer this workload does not cross
		}
		wr.Metrics[d.Name] = summarize(d.Unit, vs)
	}
	wr.Correct = len(wr.Problems) == 0 && wr.Failed == 0
	return wr
}

// fastestOf is how many trials fastestParts takes each part's fastest of.
const fastestOf = 3

// fastestParts estimates, in seconds, how long the trials' common work
// takes: per part, the fastest time among fastestOf trials, summed over the
// parts. Every trial does the same work part for part, and the host mostly
// slows work down: on a shared 2-vCPU VM, the same fuzz campaigns took from
// 1.17 to 1.76 s within one minute, in spells of a few seconds. A spell
// seldom covers the same part in every trial, so the sum of fastest parts
// repeats where the trials' own times do not.
//
// The fastest of more trials reads lower, and how many trials fit in a run
// depends on the host's speed, so the estimate averages the fastest over
// every fastestOf of the run's trials: for the i-th fastest of n values,
// the share of those subsets whose fastest it is. Parts must be long enough
// to hold many GC cycles, or the fastest would leave out GC work that lands
// in a different part each trial.
func fastestParts(parts [][]int64) (float64, error) {
	n := len(parts)
	if n == 0 || len(parts[0]) == 0 {
		return 0, errors.New("no timed parts")
	}
	for i, p := range parts {
		if len(p) != len(parts[0]) {
			return 0, fmt.Errorf("trial %d timed %d parts, trial 0 %d", i, len(p), len(parts[0]))
		}
	}
	k := min(fastestOf, n)
	sum := 0.0
	times := make([]int64, n)
	for j := range parts[0] {
		for i, p := range parts {
			times[i] = p[j]
		}
		slices.Sort(times)
		for i, ns := range times {
			sum += float64(ns) * binomial(n-1-i, k-1) / binomial(n, k)
		}
	}
	return sum / 1e9, nil
}

// binomial is n choose k, 0 when k > n.
func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

func summarize(unit string, vs []float64) Summary {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := quartiles(s)
	return Summary{Unit: unit, Median: median(s), Q1: q[0], Q3: q[2], Min: s[0], Max: s[len(s)-1], N: len(s), Values: vs}
}

// median of values (any order).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted values, by the exclusive method Python's
// statistics.quantiles(values, n=4) uses, so spreads read the same here and
// in any script that checks the results.
func quartiles(s []float64) [3]float64 {
	var q [3]float64
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func printSummary(out io.Writer, res *Result) {
	e := res.Env
	fmt.Fprintf(out, "nproc %d  GOMAXPROCS %d  %s  seed %d\n", e.Nproc, e.GOMAXPROCS, e.GoVersion, e.Seed)
	for _, wr := range res.Workloads {
		status := "correct"
		if !wr.Correct {
			status = "INCORRECT"
		}
		fmt.Fprintf(out, "\n%s: %d trials, %d/%d operations failed, %s\n", wr.Name, wr.Trials, wr.Failed, wr.Attempted, status)
		for _, p := range wr.Problems {
			fmt.Fprintf(out, "  problem: %s\n", p)
		}
		fmt.Fprintf(out, "  %-40s %-6s %12s %12s %12s %12s %12s %3s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "n")
		for _, d := range metricsFor(res.Env.Traced) {
			s := wr.Metrics[d.Name]
			fmt.Fprintf(out, "  %-40s %-6s %12.5g %12.5g %12.5g %12.5g %12.5g %3d\n", d.Name, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
		}
	}
}

// printLine writes the benchmark protocol's result line.
func printLine(out io.Writer, wr *WorkloadResult, traced bool) int {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]metric{}}
	for _, d := range metricsFor(traced) {
		s := wr.Metrics[d.Name]
		line.Metrics[d.Name] = metric{Value: s.Median, Unit: s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 1
	}
	fmt.Fprintln(out, string(data))
	return 0
}

// readResult loads a results file written by run -o or trace -o.
func readResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads")
	}
	return &r, nil
}
