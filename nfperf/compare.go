package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"slices"
)

// Verdicts compare gives a metric on one workload.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictNoBound    = "-" // per-layer metrics have no bound to judge by
	// A workload or end-to-end metric that only one file holds.
	verdictMissing = "missing"
)

// compareVerb prints, per workload and metric, each side's median and
// quartiles and a verdict, and exits 1 if any verdict is worse, unresolved
// or missing, or any workload's work changed: exit 0 means every row of
// both files was judged.
func compareVerb(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("nfperf compare", flag.ContinueOnError)
	fs.SetOutput(errw)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(errw, "usage: nfperf compare base.json new.json")
		return 2
	}
	a, err := readResult(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errw, "nfperf compare:", err)
		return 2
	}
	b, err := readResult(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(errw, "nfperf compare:", err)
		return 2
	}
	if a.Env.Traced != b.Env.Traced {
		fmt.Fprintln(errw, "nfperf compare: one file is traced and the other is not")
		return 2
	}
	bad := 0
	for _, name := range workloadUnion(a, b) {
		wa, wb := a.workload(name), b.workload(name)
		if wa == nil || wb == nil {
			only := fs.Arg(0)
			if wa == nil {
				only = fs.Arg(1)
			}
			fmt.Fprintf(out, "%s  %s: only in %s\n", name, verdictMissing, only)
			bad++
			continue
		}
		note := ""
		if wa.Fingerprint != wb.Fingerprint {
			note = "  work-changed"
			bad++
		}
		fmt.Fprintf(out, "%s%s\n", name, note)
		for _, d := range metricsFor(b.Env.Traced) {
			sa, oka := wa.Metrics[d.Name]
			sb, okb := wb.Metrics[d.Name]
			if !oka || !okb {
				// A per-layer row may be absent; a bounded one must be judged.
				if d.Bound > 0 {
					fmt.Fprintf(out, "  %-40s %-6s %s\n", d.Name, d.Unit, verdictMissing)
					bad++
				}
				continue
			}
			v := judge(d, sa, sb)
			if v == verdictWorse || v == verdictUnresolved {
				bad++
			}
			fmt.Fprintf(out, "  %-40s %-6s %12.5g [%.5g, %.5g]  %12.5g [%.5g, %.5g]  %+7.2f%%  %s\n",
				d.Name, d.Unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
				100*relChange(sa.Median, sb.Median), v)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// workloadUnion names every workload of a, then those only in b.
func workloadUnion(a, b *Result) []string {
	var names []string
	for _, r := range []*Result{a, b} {
		for _, w := range r.Workloads {
			if !slices.Contains(names, w.Name) {
				names = append(names, w.Name)
			}
		}
	}
	return names
}

func (r *Result) workload(name string) *WorkloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func relChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

// judge compares base a with new b for one metric. A change is worse when
// b's median is worse than a's by more than the bound, and better when it
// is better by more than a's own quartile spread. When either side's
// spread is wider than the bound the metric is unresolved, unless every
// value of one side beats every value of the other.
func judge(d metricDef, a, b Summary) string {
	if d.Bound == 0 {
		return verdictNoBound
	}
	if math.Abs(b.Median-a.Median) < d.Floor {
		return verdictUnchanged
	}
	// Flip higher-is-better metrics so that lower is better below.
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	am, bm := sign*a.Median, sign*b.Median
	bBeatsAll, aBeatsAll := b.Max < a.Min, a.Max < b.Min
	if sign < 0 {
		bBeatsAll, aBeatsAll = b.Min > a.Max, a.Min > b.Max
	}
	scale := math.Abs(a.Median)
	switch {
	case math.Max(spreadOf(a), spreadOf(b)) > d.Bound && !bBeatsAll && !aBeatsAll:
		return verdictUnresolved
	case bm > am+d.Bound*scale:
		return verdictWorse
	case bm < am-spreadOf(a)*scale:
		return verdictBetter
	}
	return verdictUnchanged
}

// spreadOf is the distance between the quartiles as a share of the median.
func spreadOf(s Summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
