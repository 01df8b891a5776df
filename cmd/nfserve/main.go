// Command nfserve is the soak-test server: it runs many concurrent
// data-link sessions over real loopback UDP sockets, injects seeded chaos
// (drop/hold/duplicate) on the wire, and records every session as a
// replayable NFT trace in a sharded store.
//
// Each session is lock-step replayable: the channel-policy seam does a real
// wire round trip per send, and the chaos outcome is lifted back into the
// recorded decision vocabulary, so a trace captured from a live socket
// replays bit for bit through the pure engine — and shrinks with the
// standard oracle-parameterized shrinker when it violates.
//
// Examples:
//
//	nfserve load -sessions 64 -protocols seqnum,altbit -hold 0.2 -dup 0.1 -store soak
//	nfserve ls -store soak
//	nfserve replay -store soak                 # first violating session
//	nfserve replay -store soak -session s000041 -shrink -o cert.nft
//	nftrace replay cert.nft
//	nfserve serve -store soak &                # run until SIGINT, then drain
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netlink"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

const usage = `usage: nfserve <command> [arguments]

commands:
  serve   run sessions until SIGINT/SIGTERM, then drain gracefully
  load    run a fixed session count and report throughput/latency/violations
  replay  re-drive a recorded session from the shard store (optionally shrink
          a violating one to a minimal certificate)
  ls      list the sessions recorded in a shard store

run "nfserve <command> -h" for command flags`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "nfserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing command\n%s", usage)
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "serve":
		return cmdServe(rest, out)
	case "load":
		return cmdLoad(rest, out)
	case "replay":
		return cmdReplay(rest, out)
	case "ls":
		return cmdLs(rest, out)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(out, usage)
		return nil
	default:
		return fmt.Errorf("unknown command %q\n%s", cmd, usage)
	}
}

// soakFlags declares the flags shared by serve and load.
type soakFlags struct {
	addr      *string
	protocols *string
	messages  *int
	drop      *float64
	hold      *float64
	dup       *float64
	seed      *int64
	workers   *int
	store     *string
	shards    *int
}

func addSoakFlags(fs *flag.FlagSet) *soakFlags {
	return &soakFlags{
		addr:      fs.String("addr", "127.0.0.1:0", "UDP address for the server socket"),
		protocols: fs.String("protocols", "seqnum,altbit,cntk4", "comma-separated protocols, assigned round-robin"),
		messages:  fs.Int("messages", 8, "messages per session"),
		drop:      fs.Float64("drop", 0, "per-datagram drop probability"),
		hold:      fs.Float64("hold", 0, "per-datagram hold (reorder/delay) probability"),
		dup:       fs.Float64("dup", 0, "per-datagram duplicate probability"),
		seed:      fs.Int64("seed", 1, "root seed (per-session seeds are split from it)"),
		workers:   fs.Int("workers", 16, "concurrently running sessions"),
		store:     fs.String("store", "", "shard-store directory for recorded traces, refused if it holds one already (empty: don't record)"),
		shards:    fs.Int("shards", 8, "shard files in the store"),
	}
}

func (sf *soakFlags) config() (netlink.SoakConfig, error) {
	var ps []protocol.Protocol
	for _, name := range strings.Split(*sf.protocols, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, err := replay.LookupProtocol(name)
		if err != nil {
			return netlink.SoakConfig{}, err
		}
		ps = append(ps, p)
	}
	return netlink.SoakConfig{
		Protocols: ps,
		Messages:  *sf.messages,
		Chaos:     netlink.ChaosConfig{DropProb: *sf.drop, HoldProb: *sf.hold, DupProb: *sf.dup},
		Seed:      *sf.seed,
		Workers:   *sf.workers,
	}, nil
}

// runSoak opens the server and optional store, runs the soak, and closes the
// store before reporting; a failed Close fails the run.
func runSoak(sf *soakFlags, cfg netlink.SoakConfig, out io.Writer) (*netlink.SoakReport, error) {
	sv, err := netlink.NewServer(*sf.addr)
	if err != nil {
		return nil, err
	}
	defer sv.Close()
	fmt.Fprintf(out, "serving on %s\n", sv.Addr())

	if *sf.store == "" {
		return sv.RunSoak(cfg)
	}
	store, err := trace.NewShardStore(*sf.store, *sf.shards)
	if err != nil {
		return nil, err
	}
	cfg.Store = store
	rep, err := sv.RunSoak(cfg)
	return rep, errors.Join(err, store.Close())
}

// checkRecorded fails a soak that recorded fewer sessions than it ran: the
// violations table names each session whose recording failed, and the exit
// status must say so too.
func (sf *soakFlags) checkRecorded(rep *netlink.SoakReport) error {
	if *sf.store == "" || rep.Recorded == rep.Sessions {
		return nil
	}
	return fmt.Errorf("recorded %d of %d sessions in %s", rep.Recorded, rep.Sessions, *sf.store)
}

func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	sf := addSoakFlags(fs)
	max := fs.Int("max", 0, "stop after this many sessions (0: run until signal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := sf.config()
	if err != nil {
		return err
	}
	cfg.Sessions = *max

	// Graceful drain: the first SIGINT/SIGTERM stops admissions; in-flight
	// sessions finish and are recorded before the store is closed.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		fmt.Fprintln(out, "draining: no new sessions; waiting for in-flight sessions")
		close(stop)
	}()
	cfg.Stop = stop

	rep, err := runSoak(sf, cfg, out)
	if err != nil {
		return err
	}
	if err := reportSoak(rep, out, false); err != nil {
		return err
	}
	return sf.checkRecorded(rep)
}

func cmdLoad(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	sf := addSoakFlags(fs)
	sessions := fs.Int("sessions", 64, "sessions to run")
	md := fs.Bool("md", false, "render tables as markdown (for EXPERIMENTS.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sessions <= 0 {
		return fmt.Errorf("load: -sessions must be positive")
	}
	cfg, err := sf.config()
	if err != nil {
		return err
	}
	cfg.Sessions = *sessions
	rep, err := runSoak(sf, cfg, out)
	if err != nil {
		return err
	}
	if err := reportSoak(rep, out, *md); err != nil {
		return err
	}
	return sf.checkRecorded(rep)
}

// reportSoak renders the aggregate, latency and violation tables.
func reportSoak(rep *netlink.SoakReport, out io.Writer, md bool) error {
	render := func(t *core.Table) error {
		if md {
			return t.RenderMarkdown(out)
		}
		return t.Render(out)
	}

	sum := &core.Table{
		ID:      "soak",
		Title:   "soak run summary",
		Note:    "lock-step sessions over loopback UDP; every recorded trace replays bit for bit",
		Columns: []string{"metric", "value"},
	}
	sum.AddRow("sessions", rep.Sessions)
	sum.AddRow("completed", rep.Completed)
	sum.AddRow("skipped (drain)", rep.Skipped)
	sum.AddRow("recorded", rep.Recorded)
	sum.AddRow("errors", rep.Errors)
	sum.AddRow("safety violations", rep.Violations)
	sum.AddRow("DL3 misses", rep.DL3)
	sum.AddRow("messages", rep.Messages)
	sum.AddRow("deliveries", rep.Deliveries)
	sum.AddRow("elapsed", rep.Elapsed.Round(time.Millisecond).String())
	sum.AddRow("throughput (msg/s)", rep.Throughput)
	if err := render(sum); err != nil {
		return err
	}

	lat := &core.Table{
		ID:      "soak-latency",
		Title:   "per-message submit-to-confirm latency",
		Columns: []string{"quantile", "latency"},
	}
	lat.AddRow("p50", rep.LatP50.Round(time.Microsecond).String())
	lat.AddRow("p95", rep.LatP95.Round(time.Microsecond).String())
	lat.AddRow("max", rep.LatMax.Round(time.Microsecond).String())
	if err := render(lat); err != nil {
		return err
	}

	var bad []netlink.SessionOutcome
	for _, o := range rep.Outcomes {
		if o.Verdict != "" || o.Err != "" {
			bad = append(bad, o)
		}
	}
	if len(bad) == 0 {
		fmt.Fprintln(out, "no violations, no errors")
		return nil
	}
	viol := &core.Table{
		ID:      "soak-violations",
		Title:   "violating and failed sessions",
		Note:    "reproduce with: nfserve replay -store <dir> -session <session> -shrink",
		Columns: []string{"session", "protocol", "seed", "verdict", "error"},
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].ID < bad[j].ID })
	for _, o := range bad {
		viol.AddRow(o.Session, o.Protocol, o.Seed, o.Verdict, o.Err)
	}
	return render(viol)
}

func cmdLs(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ls", flag.ContinueOnError)
	store := fs.String("store", "", "shard-store directory")
	violOnly := fs.Bool("violations", false, "list only violating sessions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *store == "" {
		return fmt.Errorf("ls: -store is required")
	}
	m, err := trace.ScanShards(*store)
	if err != nil {
		return err
	}
	entries := m.Entries
	if *violOnly {
		entries = m.Violations()
	}
	tbl := &core.Table{
		ID:      "soak-store",
		Title:   *store,
		Note:    fmt.Sprintf("%d sessions in %d shards", len(m.Entries), len(m.Shards)),
		Columns: []string{"session", "shard", "protocol", "events", "msgs", "delivered", "verdict"},
	}
	for _, e := range entries {
		tbl.AddRow(e.Session, m.Shards[e.Shard], e.Protocol, e.Events, e.Messages, e.Deliveries, e.Verdict)
	}
	return tbl.Render(out)
}

func cmdReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	var (
		store   = fs.String("store", "", "shard-store directory")
		session = fs.String("session", "", "session to replay (empty: first violating session)")
		shrink  = fs.Bool("shrink", false, "shrink a violating session to a minimal certificate")
		outPath = fs.String("o", "", "write the (shrunk) trace to this NFT file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *store == "" {
		return fmt.Errorf("replay: -store is required")
	}
	m, err := trace.ScanShards(*store)
	if err != nil {
		return err
	}
	name := *session
	if name == "" {
		v := m.Violations()
		if len(v) == 0 {
			return fmt.Errorf("replay: no violating sessions in %s (name one with -session)", *store)
		}
		name = v[0].Session
		fmt.Fprintf(out, "replaying first violating session %s\n", name)
	}
	l, err := trace.ReadShardLog(*store, m, name)
	if err != nil {
		return err
	}

	rr, err := stabilize.Confirm(l)
	if err != nil {
		return fmt.Errorf("replay: session %s: %w", name, err)
	}
	verdict := "clean"
	if rr.Verdict != nil {
		verdict = rr.Verdict.Property + " violated"
	}
	fmt.Fprintf(out, "session %s: %d events replayed bit for bit, verdict %s\n", name, l.Len(), verdict)

	final := l
	if *shrink {
		sr, err := replay.Shrink(l)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "shrunk to minimal %s certificate (oracle %s): events %d -> %d, ops %d -> %d (%d replays)\n",
			sr.Property, sr.Oracle, sr.OriginalEvents, sr.FinalEvents, sr.OriginalOps, sr.FinalOps, sr.Replays)
		final = sr.Log
	}
	if *outPath != "" {
		if err := trace.WriteFile(*outPath, final); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outPath)
	}
	return nil
}
