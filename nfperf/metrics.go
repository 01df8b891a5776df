package main

// metricDef names one reported metric. Bound is the share of the baseline
// median by which the metric may worsen before compare calls it a
// regression; per-layer metrics have none. Floor is an absolute difference
// below which compare ignores a change.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Floor  float64
}

// endToEnd are the metrics a user of the engines sees, measured on
// untraced trials through the engines' public entry points. Every workload
// reports every one of them; BENCHMARK.json repeats this table.
//
// The time bounds are wide because the machine moves them: on a shared
// 2-vCPU VM the same work slowed by up to half for seconds at a time, and
// the host's speed drifted over hours (a compute loop slowed 25% within
// two). Peak RSS did not repeat within a tenth (fuzz-attack's is mostly GC
// slack over a tiny live heap) and is a per-layer metric.
var endToEnd = []metricDef{
	// From spawning the trial's process to its first timed call.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.005},
	// The trial's fixed work: the seeded fuzz campaigns, the proof set to
	// every verdict, or one soak batch, each part at its fastest over the
	// run's trials (fastestParts). Work is fixed per seed, so this is the
	// inverse of execs/s, configs/s or delivered msgs/s.
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.24},
	// Bytes allocated over the timed region (MemStats.TotalAlloc delta). It
	// repeats within a seed; over ten seeds the fuzz workloads' campaigns
	// spread it by up to 6.3%.
	{Name: "alloc_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
}

// layerSpans are the spans the traced replicas record, one per call into a
// layer's public function. Each gives a call count and a self-time share:
// the span's time minus its child spans', as a percentage of the traced
// timed region (summed over goroutines). "bench" is the benchmark's own
// loop around those calls. trace.shard.read, replay.soak and replay.confirm
// are the check path after the timed region; their shares can add past 100.
var layerSpans = []string{
	"bench",
	"fuzz.mutate", "fuzz.exec", "fuzz.admit", "fuzz.promote", "fuzz.exec_log",
	"replay.shrink", "fuzz.livelock", "replay.certify", "replay.shrink_liveness",
	"verify.registry", "verify.stabdl2-stab", "verify.seqnum-occ4", "replay.confirm",
	"netlink.session", "trace.shard.put", "trace.shard.close", "trace.shard.read", "replay.soak",
}

// layerExtras are per-layer counts and ratios measured where the work
// happens, beside the spans' calls and shares.
var layerExtras = []metricDef{
	{Name: "trace.wall_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "x", Better: "lower"},
	{Name: "trace.layer_pct", Unit: "%", Better: "higher"},
	{Name: "trace.diverged", Unit: "count", Better: "lower"},
	// The untraced trials' resident high-water mark when the timed region
	// ends (VmHWM).
	{Name: "process.peak_rss_mb", Unit: "MiB", Better: "lower"},

	// Operation counts of the executed inputs, mutated ones included.
	{Name: "fuzz.exec.input_ops_p50", Unit: "count", Better: "lower"},
	{Name: "fuzz.exec.input_ops_p99", Unit: "count", Better: "lower"},
	// Executions that violated a safety property and were promoted.
	{Name: "fuzz.exec.violating_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fuzz.cover.fresh_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fuzz.promote.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "replay.shrink.replays_per_call", Unit: "count", Better: "lower"},
	{Name: "replay.certify.success_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fuzz.alloc_bytes_per_exec", Unit: "B", Better: "lower"},

	{Name: "verify.registry.states", Unit: "count", Better: "lower"},
	{Name: "verify.registry.edges_per_config", Unit: "ratio", Better: "lower"},
	{Name: "verify.stabdl2-stab.states", Unit: "count", Better: "lower"},
	{Name: "verify.stabdl2-stab.edges_per_config", Unit: "ratio", Better: "lower"},
	{Name: "verify.seqnum-occ4.states", Unit: "count", Better: "lower"},
	{Name: "verify.seqnum-occ4.edges_per_config", Unit: "ratio", Better: "lower"},
	{Name: "verify.dl3_attempted", Unit: "count", Better: "lower"},
	{Name: "verify.alloc_bytes_per_config", Unit: "B", Better: "lower"},

	{Name: "netlink.latency_p95_over_p50", Unit: "x", Better: "lower"},
	{Name: "netlink.chaos.drops", Unit: "count", Better: "lower"},
	{Name: "netlink.chaos.holds", Unit: "count", Better: "lower"},
	{Name: "netlink.chaos.dups", Unit: "count", Better: "lower"},
	{Name: "netlink.wire.lost", Unit: "count", Better: "lower"},
	{Name: "netlink.wire.filtered", Unit: "count", Better: "lower"},
	{Name: "netlink.wire.stale_lifted", Unit: "count", Better: "lower"},
	{Name: "netlink.wire.forced_releases", Unit: "count", Better: "lower"},
	{Name: "trace.shard.put.bytes", Unit: "B", Better: "lower"},
	{Name: "replay.soak.events", Unit: "count", Better: "lower"},
}

// perLayer is every metric a traced run reports.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range layerSpans {
		if s != "bench" {
			defs = append(defs, metricDef{Name: s + ".calls", Unit: "count", Better: "lower"})
		}
		defs = append(defs, metricDef{Name: s + ".self_pct", Unit: "%", Better: "lower"})
	}
	return append(defs, layerExtras...)
}()

func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
