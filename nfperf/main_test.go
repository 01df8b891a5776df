package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fuzz"
	"repro/internal/netlink"
	"repro/internal/trace"
)

// childEnv marks a test binary re-executed as a trial child: measure
// spawns os.Executable, which under go test is the test binary.
const childEnv = "NFPERF_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestTrialsPassGates runs one untraced and one traced trial of every
// workload through the child-process path, on the default seed and the
// held-out one. Every gate must pass, the fingerprints must match the
// pinned answers, and the traced replicas must not diverge.
func TestTrialsPassGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv(childEnv, "1")
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := measure(workloads, options{
				seed:   seed,
				traced: true,
				more:   func(round int, _ time.Duration) bool { return round < 1 },
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, wr := range res.Workloads {
				if !wr.Correct {
					t.Errorf("%s: %d/%d failed, problems %v", wr.Name, wr.Failed, wr.Attempted, wr.Problems)
				}
				if _, pinned := lookupPin(wr.Name, seed); !pinned && wr.Name != "prove" {
					t.Errorf("%s has no pinned fingerprint for seed %d", wr.Name, seed)
				}
				if got := wr.Metrics["trace.diverged"].Median; got != 0 {
					t.Errorf("%s: traced replica diverged", wr.Name)
				}
				if got := wr.Metrics["trace.layer_pct"].Median; got < 90 {
					t.Errorf("%s: layer spans cover %.1f%% of the traced time, want >= 90%%", wr.Name, got)
				}
			}
		})
	}
}

func lookupPin(workload string, seed int64) (string, bool) {
	w, ok := lookupWorkload(workload)
	if !ok {
		return "", false
	}
	pin, ok := w.pins[seed]
	return pin, ok
}

// TestCampaignReplicaFidelity holds the traced fuzz replica equal to
// fuzz.Run at budget 300, violations and certificates included: on both
// fuzz workloads' protocols, and on the livelock protocol, whose certified
// livelock adds a coverage point of its own; stopping at the first
// violation as the workloads do, and keeping going, which promotes every
// violating execution.
func TestCampaignReplicaFidelity(t *testing.T) {
	for _, c := range []struct {
		proto string
		stop  bool
		want  []string // properties the campaign must promote
	}{
		{"altbit", true, []string{"DL1"}},
		{"altbit", false, []string{"DL1"}},
		{"seqnum", true, nil},
		{"livelock", true, []string{"DL3"}},
		{"livelock", false, []string{"DL3"}},
	} {
		t.Run(fmt.Sprintf("%s/stop=%v", c.proto, c.stop), func(t *testing.T) {
			spec := campaignSpec{proto: c.proto, campaigns: 3, budget: 300}
			cfgs, err := spec.configs(7)
			if err != nil {
				t.Fatal(err)
			}
			tr := &trial{childParams: childParams{traced: true}}
			tr.start()
			r := &replica{tr: tr.tracer()}
			for i, cfg := range cfgs {
				cfg.StopOnViolation = c.stop
				want, err := fuzz.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := r.run(cfg)
				if g, w := campaignFingerprint(got), campaignFingerprint(want); g != w {
					t.Fatalf("campaign %d: replica %q, fuzz.Run %q", i, g, w)
				}
				var props []string
				for j, v := range want.Violations {
					props = append(props, v.Property)
					if !reflect.DeepEqual(got.Violations[j].Cert.Events, v.Cert.Events) {
						t.Errorf("campaign %d: %s certificate differs from fuzz.Run's", i, v.Property)
					}
				}
				if !reflect.DeepEqual(props, c.want) {
					t.Errorf("campaign %d promoted %v, want %v", i, props, c.want)
				}
			}
			if r.promotes > 0 && c.want == nil {
				t.Errorf("sound protocol: %d promotions", r.promotes)
			}
		})
	}
}

// TestSoakReplicaFidelity holds the traced soak replica's per-session
// outcomes equal to RunSoak's on 64 sessions.
func TestSoakReplicaFidelity(t *testing.T) {
	outcomes := func(replica bool) []netlink.SessionOutcome {
		store, err := trace.NewShardStore(t.TempDir(), soakShards)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		sv, err := netlink.NewServer("")
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Close()
		cfg := soakConfig(3, 1, store)
		cfg.Sessions = 64
		if !replica {
			rep, err := sv.RunSoak(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rep.Outcomes
		}
		tr := &trial{childParams: childParams{traced: true}}
		tr.start()
		return (&soakReplica{sv: sv}).run(tr, cfg)
	}
	want, got := outcomes(false), outcomes(true)
	if len(got) != len(want) {
		t.Fatalf("replica ran %d sessions, RunSoak %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		w.Elapsed, g.Elapsed = 0, 0
		if g != w {
			t.Errorf("session %d: replica %+v, RunSoak %+v", i, g, w)
		}
	}
}

func summ(vs ...float64) Summary { return summarize("s", vs) }

// TestJudge covers compare's verdicts, including the bound edge and the
// unresolved case.
func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	base := summ(0.99, 1.0, 1.0, 1.0, 1.01)
	cases := []struct {
		name string
		d    metricDef
		a, b Summary
		want string
	}{
		{"same", lower, base, summ(0.99, 1.0, 1.0, 1.0, 1.01), verdictUnchanged},
		{"at the bound", lower, base, summ(1.09, 1.1, 1.1, 1.1, 1.11), verdictUnchanged},
		{"past the bound", lower, base, summ(1.1, 1.11, 1.11, 1.11, 1.12), verdictWorse},
		{"faster", lower, base, summ(0.9, 0.91, 0.91, 0.91, 0.92), verdictBetter},
		{"faster within the spread", lower, summ(0.95, 0.97, 1.0, 1.03, 1.05), summ(0.96, 0.97, 0.98, 0.99, 1.0), verdictUnchanged},
		{"higher is better", higher, base, summ(0.85, 0.86, 0.86, 0.86, 0.87), verdictWorse},
		{"spread wider than the bound", lower, base, summ(0.8, 0.9, 1.0, 1.2, 1.3), verdictUnresolved},
		{"wide but every value worse", lower, base, summ(1.2, 1.3, 1.5, 1.7, 1.8), verdictWorse},
		{"no bound", metricDef{Better: "lower"}, base, base, verdictNoBound},
		{"under the floor", metricDef{Better: "lower", Bound: 0.1, Floor: 0.005}, summ(0.002), summ(0.004), verdictUnchanged},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFlagsWorkChanged runs the compare verb on synthetic result
// files: identical runs compare clean, and a changed fingerprint, a
// regression, or a workload or metric that one side lacks fails it.
func TestCompareFlagsWorkChanged(t *testing.T) {
	workload := func(name, fp string, wall float64) *WorkloadResult {
		wr := &WorkloadResult{Name: name, Correct: true, Fingerprint: fp, Metrics: map[string]Summary{}}
		for _, d := range endToEnd {
			wr.Metrics[d.Name] = summarize(d.Unit, []float64{1, 1, 1})
		}
		wr.Metrics["wall_s"] = summarize("s", []float64{wall, wall, wall})
		return wr
	}
	write := func(ws ...*WorkloadResult) string {
		data, err := json.Marshal(&Result{Workloads: ws})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	noWall := workload("soak", "a", 1)
	delete(noWall.Metrics, "wall_s")
	base := write(workload("soak", "a", 1), workload("prove", "p", 1))
	for _, c := range []struct {
		name, other string
		code        int
		want        string
	}{
		{"same", write(workload("soak", "a", 1), workload("prove", "p", 1)), 0, "unchanged"},
		{"work changed", write(workload("soak", "b", 1), workload("prove", "p", 1)), 1, "work-changed"},
		{"slower", write(workload("soak", "a", 2), workload("prove", "p", 1)), 1, "worse"},
		{"workload dropped", write(workload("soak", "a", 1)), 1, "prove  missing"},
		{"workload added", write(workload("soak", "a", 1), workload("prove", "p", 1), workload("new", "n", 1)), 1, "new  missing"},
		{"metric dropped", write(noWall, workload("prove", "p", 1)), 1, "missing"},
	} {
		var out, errw bytes.Buffer
		if code := run([]string{"compare", base, c.other}, &out, &errw); code != c.code {
			t.Errorf("%s: exit %d, want %d: %s%s", c.name, code, c.code, out.String(), errw.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, out.String())
		}
	}
}

// TestQuartilesMatchPython pins the exclusive method of Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	if got := quartiles([]float64{1, 2, 3}); got != [3]float64{1, 2, 3} {
		t.Errorf("quartiles(1..3) = %v, want [1 2 3]", got)
	}
}

// TestFastestParts checks that a slow spell in one trial does not reach
// wall_s as long as another trial ran that part at speed, and that a fourth
// trial enters as the fastest of three, averaged over every three trials.
func TestFastestParts(t *testing.T) {
	for _, c := range []struct {
		parts [][]int64
		want  float64
	}{
		{[][]int64{{1e9, 5e9, 1e9}, {3e9, 1e9, 1e9}, {1e9, 1e9, 4e9}}, 3},
		// Of {1,2,3,4}, three of the four triples hold 1 and one holds 2 as its fastest.
		{[][]int64{{1e9}, {2e9}, {3e9}, {4e9}}, 1.25},
		{[][]int64{{2e9}, {1e9}}, 1},
	} {
		got, err := fastestParts(c.parts)
		if err != nil || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("fastestParts(%v) = %v, %v; want %v", c.parts, got, err, c.want)
		}
	}
	if _, err := fastestParts([][]int64{{1, 2}, {1}}); err == nil {
		t.Error("trials with different part counts were accepted")
	}
}

// TestPrintLine checks the result line the benchmark protocol ends with.
func TestPrintLine(t *testing.T) {
	wr := &WorkloadResult{Correct: true, Attempted: 5, Metrics: map[string]Summary{}}
	for _, d := range endToEnd {
		wr.Metrics[d.Name] = summarize(d.Unit, []float64{1.5})
	}
	var out bytes.Buffer
	printLine(&out, wr, false)
	var line map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line keys %v, want correct, attempted, failed, metrics", keys)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value != 1.5 {
			t.Errorf("%s = %+v, want 1.5 %s", d.Name, m, d.Unit)
		}
	}
}

func TestBadInvocation(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nosuch"},
		{"--workload", "soak", "--trace", "2"},
		{"run", "-workload", "nosuch"},
		{"compare", "onlyone.json"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed %q on standard output", args, out.String())
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json, at the repository root, to this
// package's workload and metric tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	var got doc
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	var want doc
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		want.EndToEnd = append(want.EndToEnd, metric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, metric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	if !reflect.DeepEqual(got, want) {
		w, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json is out of date with the tables; they give:\n%s", w)
	}
}
