package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netlink"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// The soak workload is a closed loop: soakWorkers sessions run at a time,
// each starting when one finishes, every session lock-step over loopback
// UDP through one shared server socket. It runs as soakBatches soaks of
// soakBatch sessions, each recorded into a shard store of its own, so that
// wall_s can take each batch at its fastest (fastestParts).
const (
	soakBatches  = 8
	soakBatch    = 256
	soakSessions = soakBatches * soakBatch
	soakMessages = 16
	soakWorkers  = 2
	soakShards   = 4
)

func soakConfig(seed int64, batch int, store *trace.ShardStore) netlink.SoakConfig {
	return netlink.SoakConfig{
		Protocols: []protocol.Protocol{protocol.NewSeqNum(), protocol.NewAltBit(), protocol.NewCntK(4)},
		Sessions:  soakBatch,
		Messages:  soakMessages,
		Chaos:     netlink.ChaosConfig{DropProb: 0.05, HoldProb: 0.2, DupProb: 0.1},
		Seed:      core.SplitSeed(seed, "nfperf/soak/"+strconv.Itoa(batch)),
		Workers:   soakWorkers,
		Store:     store,
	}
}

// soakTrial runs each batch through (*netlink.Server).RunSoak, or traced,
// through the replica, and closes the batch's shard store inside the timed
// region: a soak is done when its recordings are durable and indexed.
// Reading every shard back and replaying it is the check path.
func soakTrial(t *trial) error {
	dir, err := os.MkdirTemp(t.dir, "soak-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sv, err := netlink.NewServer("")
	if err != nil {
		return err
	}
	defer sv.Close()
	cfgs := make([]netlink.SoakConfig, soakBatches)
	for b := range cfgs {
		store, err := trace.NewShardStore(filepath.Join(dir, strconv.Itoa(b)), soakShards)
		if err != nil {
			return err
		}
		defer store.Close()
		cfgs[b] = soakConfig(t.seed, b, store)
	}

	outcomes := make([][]netlink.SessionOutcome, soakBatches)
	t.start()
	rs := &soakReplica{sv: sv}
	for b, cfg := range cfgs {
		if t.traced {
			outcomes[b] = rs.run(t, cfg)
		} else {
			rep, err := sv.RunSoak(cfg)
			if err != nil {
				return err
			}
			outcomes[b] = rep.Outcomes
		}
		tr := t.tracer()
		tr.begin("bench")
		tr.begin("trace.shard.close")
		err := cfg.Store.Close()
		tr.end()
		tr.end()
		if err != nil {
			return fmt.Errorf("closing batch %d's shard store: %w", b, err)
		}
		t.lap()
	}
	t.stop()

	checkSoak(t, cfgs, outcomes, t.tracer())
	if t.traced {
		rs.layers(t)
	}
	return nil
}

// checkSoak gates a soak: every session ran without error and was
// recorded, and every recording reads back from its shard and replays with
// no divergence to its recorded verdict.
func checkSoak(t *trial, cfgs []netlink.SoakConfig, outcomes [][]netlink.SessionOutcome, tr *tracer) {
	t.out.Ops = soakSessions
	h := fnv.New64a()
	sessions, delivered, violations, dl3, events := 0, 0, 0, 0, 0
	for b, cfg := range cfgs {
		if len(outcomes[b]) != soakBatch {
			t.fail("batch %d: %d of %d sessions reported", b, len(outcomes[b]), soakBatch)
			t.out.Failed += soakBatch
			continue
		}
		dir := cfg.Store.Dir()
		m, err := trace.ReadManifestFile(dir)
		if err != nil {
			t.fail("batch %d manifest: %v", b, err)
			t.out.Failed += soakBatch
			continue
		}
		for _, o := range outcomes[b] {
			hashOutcome(h, b, o)
			sessions++
			delivered += o.Delivered
			events += o.Events
			if o.Verdict != "" {
				violations++
			}
			if o.DL3 {
				dl3++
			}
			if err := checkSession(dir, m, o, tr); err != nil {
				t.fail("batch %d %s: %v", b, o.Session, err)
				t.out.Failed++
			}
		}
	}
	if n := len(t.out.Problems); n > 8 {
		t.out.Problems = append(t.out.Problems[:8], fmt.Sprintf("and %d more", n-8))
	}
	t.out.Fingerprint = fmt.Sprintf("sessions=%d delivered=%d violations=%d dl3=%d events=%d outcomes=%016x",
		sessions, delivered, violations, dl3, events, h.Sum64())
}

func hashOutcome(h hash.Hash, batch int, o netlink.SessionOutcome) {
	fmt.Fprintf(h, "%d %d %s %d %d %d %d %s %v %v\n", batch, o.ID, o.Protocol, o.Seed, o.Messages, o.Delivered, o.Events, o.Verdict, o.DL3, o.Recorded)
}

func checkSession(dir string, m *trace.Manifest, o netlink.SessionOutcome, tr *tracer) error {
	if o.Err != "" {
		return fmt.Errorf("session error: %s", o.Err)
	}
	if !o.Recorded {
		return fmt.Errorf("not recorded")
	}
	tr.begin("trace.shard.read")
	l, err := trace.ReadShardLog(dir, m, o.Session)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("replay.soak")
	defer tr.end()
	return confirm(l)
}

// soakReplica re-drives RunSoak's worker pool through (*Server).RunSession
// and (*ShardStore).Put, with the session seeds SoakConfig documents, and
// must reproduce its per-session outcomes. Its counters add up over every
// batch it runs.
type soakReplica struct {
	sv *netlink.Server

	events int

	mu      sync.Mutex
	stats   netlink.SessionStats // counters summed over sessions
	lats    []time.Duration
	putSize int64
}

func (rs *soakReplica) run(t *trial, cfg netlink.SoakConfig) []netlink.SessionOutcome {
	outcomes := make([]netlink.SessionOutcome, cfg.Sessions)
	ids := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		tr := t.tracer()
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.begin("bench")
			defer tr.end()
			for id := range ids {
				outcomes[id] = rs.session(cfg, id, tr)
			}
		}()
	}
	for id := 0; id < cfg.Sessions; id++ {
		ids <- id
	}
	close(ids)
	wg.Wait()
	for _, o := range outcomes {
		rs.events += o.Events
	}
	return outcomes
}

func (rs *soakReplica) session(cfg netlink.SoakConfig, id int, tr *tracer) netlink.SessionOutcome {
	p := cfg.Protocols[id%len(cfg.Protocols)]
	scfg := netlink.SessionConfig{
		Protocol: p,
		Messages: cfg.Messages,
		Chaos:    cfg.Chaos,
		Seed:     core.SplitSeed(cfg.Seed, "session/"+strconv.Itoa(id)),
	}
	out := netlink.SessionOutcome{ID: id, Session: netlink.SessionName(id), Protocol: p.Name(), Seed: scfg.Seed}
	tr.begin("netlink.session")
	res, err := rs.sv.RunSession(scfg)
	tr.end()
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Messages = res.Stats.Messages
	out.Delivered = res.Stats.Delivered
	out.Events = res.Log.Len()
	out.Elapsed = res.Stats.Elapsed
	if res.Verdict != nil {
		out.Verdict = res.Verdict.Property
	}
	out.DL3 = res.DL3 != nil
	if res.Err != nil {
		out.Err = res.Err.Error()
	}
	tr.begin("trace.shard.put")
	e, perr := cfg.Store.Put(out.Session, res.Log)
	tr.end()
	if perr != nil {
		if out.Err == "" {
			out.Err = perr.Error()
		}
	} else {
		out.Recorded = true
	}

	rs.mu.Lock()
	defer rs.mu.Unlock()
	s := res.Stats
	rs.stats.ChaosDrops += s.ChaosDrops
	rs.stats.ChaosHolds += s.ChaosHolds
	rs.stats.ChaosDups += s.ChaosDups
	rs.stats.WireLost += s.WireLost
	rs.stats.WireFiltered += s.WireFiltered
	rs.stats.StaleLifted += s.StaleLifted
	rs.stats.ForcedReleases += s.ForcedReleases
	rs.lats = append(rs.lats, s.Latencies...)
	rs.putSize += e.Length
	return out
}

func (rs *soakReplica) layers(t *trial) {
	l := map[string]float64{
		"netlink.chaos.drops":          float64(rs.stats.ChaosDrops),
		"netlink.chaos.holds":          float64(rs.stats.ChaosHolds),
		"netlink.chaos.dups":           float64(rs.stats.ChaosDups),
		"netlink.wire.lost":            float64(rs.stats.WireLost),
		"netlink.wire.filtered":        float64(rs.stats.WireFiltered),
		"netlink.wire.stale_lifted":    float64(rs.stats.StaleLifted),
		"netlink.wire.forced_releases": float64(rs.stats.ForcedReleases),
		"trace.shard.put.bytes":        float64(rs.putSize),
		"replay.soak.events":           float64(rs.events),
	}
	if n := len(rs.lats); n > 0 {
		sort.Slice(rs.lats, func(i, j int) bool { return rs.lats[i] < rs.lats[j] })
		l["netlink.latency_p95_over_p50"] = float64(rs.lats[n*95/100]) / float64(rs.lats[n/2])
	}
	t.out.Layers = l
}
