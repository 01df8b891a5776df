package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// childParams are the inputs of one trial, passed to the child process as
// flags. The child re-derives everything else from the workload and seed.
type childParams struct {
	workload string
	seed     int64
	dir      string // the run's work directory, for the trial's temporary files
	traced   bool
	spans    string // directory to write this trial's spans to, "" for none
}

func (p childParams) args() []string {
	a := []string{"child", "-workload", p.workload, "-seed", strconv.FormatInt(p.seed, 10), "-dir", p.dir}
	if p.traced {
		a = append(a, "-traced")
	}
	if p.spans != "" {
		a = append(a, "-spans", p.spans)
	}
	return a
}

// trialOut is the child's report, one JSON object on standard output.
type trialOut struct {
	// ReadyUnixNS is the wall clock at the first timed call.
	ReadyUnixNS int64 `json:"readyUnixNs"`
	WallNS      int64 `json:"wallNs"`
	// PartsNS times the parts of the timed work in order: each campaign,
	// each prover run, or the whole soak.
	PartsNS    []int64 `json:"partsNs"`
	AllocBytes uint64  `json:"allocBytes"`
	// PeakRSSKiB is the child's resident high-water mark (VmHWM) when the
	// timed region ends, before the check path. The parent's Rusage.Maxrss
	// would not do: a child spawned by vfork inherits the parent's
	// high-water mark at exec.
	PeakRSSKiB int64 `json:"peakRssKiB"`
	// Ops and Failed count the trial's operations and those that failed
	// a gate.
	Ops         int                `json:"ops"`
	Failed      int                `json:"failed"`
	Fingerprint string             `json:"fingerprint"`
	Problems    []string           `json:"problems,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

// exitGateFailed is the child's exit status when it ran to the end but a
// gate failed; its report is still on standard output.
const exitGateFailed = 3

// trial is the child's view of one trial.
type trial struct {
	childParams
	out    trialOut
	m0     runtime.MemStats
	ready  time.Time
	lapped time.Time // when the last part ended
	rssErr error
	// tracers holds the traced run's span recorders, one per goroutine;
	// empty when untraced.
	tracers []*tracer
}

// start marks the first timed call.
func (t *trial) start() {
	runtime.ReadMemStats(&t.m0)
	t.ready = time.Now()
	t.lapped = t.ready
	t.out.ReadyUnixNS = t.ready.UnixNano()
}

// lap ends one part of the timed work.
func (t *trial) lap() {
	now := time.Now()
	t.out.PartsNS = append(t.out.PartsNS, int64(now.Sub(t.lapped)))
	t.lapped = now
}

// stop ends the timed region.
func (t *trial) stop() {
	t.out.WallNS = int64(time.Since(t.ready))
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	t.out.AllocBytes = m1.TotalAlloc - t.m0.TotalAlloc
	t.out.PeakRSSKiB, t.rssErr = peakRSS()
}

// fail records a failed gate.
func (t *trial) fail(format string, args ...any) {
	t.out.Problems = append(t.out.Problems, fmt.Sprintf(format, args...))
}

// tracer returns a new span recorder for one goroutine of the traced run,
// or nil (which records nothing) when the trial is untraced.
func (t *trial) tracer() *tracer {
	if !t.traced {
		return nil
	}
	tr := &tracer{epoch: t.ready}
	t.tracers = append(t.tracers, tr)
	return tr
}

func childMain(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("nfperf child", flag.ContinueOnError)
	fs.SetOutput(errw)
	var p childParams
	fs.StringVar(&p.workload, "workload", "", "")
	fs.Int64Var(&p.seed, "seed", 1, "")
	fs.StringVar(&p.dir, "dir", "", "")
	fs.BoolVar(&p.traced, "traced", false, "")
	fs.StringVar(&p.spans, "spans", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(p.workload)
	if !ok {
		fmt.Fprintf(errw, "nfperf child: unknown workload %q\n", p.workload)
		return 2
	}
	t := &trial{childParams: p}
	err := w.run(t)
	if err == nil {
		err = t.rssErr
	}
	if err != nil {
		fmt.Fprintf(errw, "nfperf child %s: %v\n", p.workload, err)
		return 1
	}
	if p.traced {
		if err := t.finishTrace(); err != nil {
			fmt.Fprintf(errw, "nfperf child %s: %v\n", p.workload, err)
			return 1
		}
	}
	if err := json.NewEncoder(out).Encode(&t.out); err != nil {
		return 1
	}
	if len(t.out.Problems) > 0 {
		return exitGateFailed
	}
	return 0
}

// peakRSS reads this process's resident high-water mark in KiB.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// childOutput returns a finished child's standard output, accepting the
// gate-failure exit status as a completed trial.
func childOutput(cmd *exec.Cmd) ([]byte, error) {
	stdout, err := cmd.Output()
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.ExitCode() == exitGateFailed {
		return stdout, nil
	}
	return stdout, err
}

// tracer records spans in memory for one goroutine. A nil *tracer records
// nothing, so the checks shared by untraced and traced trials take one.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
}

type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 for a root
	start, end int64 // ns since the tracer's epoch
}

func (tr *tracer) begin(name string) {
	if tr == nil {
		return
	}
	parent := int32(-1)
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.open = append(tr.open, int32(len(tr.spans)))
	tr.spans = append(tr.spans, span{name: name, parent: parent, start: int64(time.Since(tr.epoch))})
}

func (tr *tracer) end() {
	if tr == nil {
		return
	}
	i := tr.open[len(tr.open)-1]
	tr.open = tr.open[:len(tr.open)-1]
	tr.spans[i].end = int64(time.Since(tr.epoch))
}

// finishTrace adds the span-derived layer metrics to the traced trial's
// report and writes the spans out if asked. The timed total is the sum of
// the "bench" root spans, one per goroutine that did timed work.
func (t *trial) finishTrace() error {
	calls := map[string]int{}
	self := map[string]int64{}
	var total int64
	for _, tr := range t.tracers {
		if len(tr.open) != 0 {
			return fmt.Errorf("span %q never ended", tr.spans[tr.open[0]].name)
		}
		child := make([]int64, len(tr.spans))
		for _, s := range tr.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range tr.spans {
			calls[s.name]++
			self[s.name] += s.end - s.start - child[i]
			if s.parent < 0 && s.name == "bench" {
				total += s.end - s.start
			}
		}
	}
	if total <= 0 {
		return errors.New("traced trial recorded no timed work")
	}
	known := map[string]bool{}
	for _, s := range layerSpans {
		known[s] = true
	}
	var unknown []string
	for name := range calls {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("spans missing from layerSpans: %v", unknown)
	}
	if t.out.Layers == nil {
		t.out.Layers = map[string]float64{}
	}
	for _, s := range layerSpans {
		if s != "bench" {
			t.out.Layers[s+".calls"] = float64(calls[s])
		}
		t.out.Layers[s+".self_pct"] = 100 * float64(self[s]) / float64(total)
	}
	t.out.Layers["trace.layer_pct"] = 100 - t.out.Layers["bench.self_pct"]
	if t.spans == "" {
		return nil
	}
	return t.writeSpans()
}

// writeSpans writes every span as a tab-separated row: goroutine, index,
// parent index, name, start and end in ns since the timed region began.
func (t *trial) writeSpans() error {
	if err := os.MkdirAll(t.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(t.spans, fmt.Sprintf("%s-seed%d.tsv", t.workload, t.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "goroutine\tspan\tparent\tname\tstart_ns\tend_ns")
	for g, tr := range t.tracers {
		for i, s := range tr.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", g, i, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
