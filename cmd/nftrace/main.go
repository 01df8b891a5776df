// Command nftrace works with NFT execution traces: record a simulated run,
// replay a trace deterministically, shrink a violating trace to a minimal
// counterexample, certify a stranding trace as a pumpable livelock, and
// summarize a trace file.
//
// Examples:
//
//	nftrace record -protocol altbit -messages 8 -seed 3 -o run.nft
//	nftrace replay run.nft
//	nfadv -attack replay -protocol altbit -o v.nft
//	nftrace shrink v.nft -o min.nft
//	nftrace replay min.nft
//	nftrace stats min.nft
//	nffuzz -protocol livelock -workers 1 -o certs
//	nftrace certify-livelock certs/livelock-DL3.nft -o pumped.nft
//	nftrace replay pumped.nft
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

const usage = `usage: nftrace <command> [arguments]

commands:
  record            run a protocol under seeded lossy channels and record a trace
  replay            re-drive a recorded trace and re-check its verdict
  shrink            minimize a violating trace while preserving the violation
  certify-livelock  certify a stranding trace as a pumpable livelock (Theorem 2.1)
  stats             summarize a trace file

run "nftrace <command> -h" for command flags`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "nftrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing command\n%s", usage)
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "record":
		return cmdRecord(rest, out)
	case "replay":
		return cmdReplay(rest, out)
	case "shrink":
		return cmdShrink(rest, out)
	case "certify-livelock":
		return cmdCertifyLivelock(rest, out)
	case "stats":
		return cmdStats(rest, out)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(out, usage)
		return nil
	default:
		return fmt.Errorf("unknown command %q\n%s", cmd, usage)
	}
}

// parseWithFile parses fs over args accepting one positional trace-file
// argument before or after the flags (Go's flag package stops at the first
// positional, so trailing flags need a second pass).
func parseWithFile(fs *flag.FlagSet, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() == 0 {
		return "", fmt.Errorf("%s: missing trace file argument", fs.Name())
	}
	file := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return "", err
	}
	if fs.NArg() != 0 {
		return "", fmt.Errorf("%s: unexpected extra arguments %v", fs.Name(), fs.Args())
	}
	return file, nil
}

func cmdRecord(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	var (
		protoName = fs.String("protocol", "altbit", "protocol: "+strings.Join(protocol.Names(), ", "))
		messages  = fs.Int("messages", 8, "messages to deliver")
		seed      = fs.Int64("seed", 1, "channel-behaviour seed")
		delay     = fs.Float64("delay", 0.3, "per-packet delay probability on the data channel")
		ackDelay  = fs.Float64("ack-delay", 0.2, "per-packet delay probability on the ack channel")
		outPath   = fs.String("o", "run.nft", "output trace file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := replay.LookupProtocol(*protoName)
	if err != nil {
		return err
	}

	cfg := func(l *trace.Log) sim.Config {
		return sim.Config{
			Protocol:    p,
			DataPolicy:  channel.Probabilistic(*delay, rand.New(rand.NewSource(*seed))),
			AckPolicy:   channel.Probabilistic(*ackDelay, rand.New(rand.NewSource(*seed+1))),
			RecordTrace: true,
			TraceLog:    l,
		}
	}
	l := trace.NewLog(nil)
	res := sim.NewRunner(cfg(l)).Run(*messages)
	if res.Err != nil {
		return fmt.Errorf("run failed: %w", res.Err)
	}
	// Recording-overhead figure: best of a few timed runs each way, so a
	// cold first iteration does not inflate the ratio. Same seeds, so the
	// recorded and bare runs make identical decisions.
	recorded, bare := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if r := sim.NewRunner(cfg(trace.NewLog(nil))).Run(*messages); r.Err != nil {
			return fmt.Errorf("run failed: %w", r.Err)
		}
		recorded = min(recorded, time.Since(start))
		start = time.Now()
		if r := sim.NewRunner(cfg(nil)).Run(*messages); r.Err != nil {
			return fmt.Errorf("baseline run failed: %w", r.Err)
		}
		bare = min(bare, time.Since(start))
	}

	if err := trace.WriteFile(*outPath, l); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %s: %d messages, %d events -> %s\n",
		*protoName, *messages, l.Len(), *outPath)
	fmt.Fprintf(out, "metrics: %d data packets, %d ack packets, %d headers\n",
		res.Metrics.TotalDataPackets, res.Metrics.TotalAckPackets, res.Metrics.HeadersUsed)
	overhead := float64(recorded) / float64(bare)
	fmt.Fprintf(out, "recording overhead: %v recorded vs %v bare (%.2fx)\n", recorded, bare, overhead)
	return nil
}

func cmdReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print the replayed event log")
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	l, err := trace.ReadFile(file)
	if err != nil {
		return err
	}
	rr, cerr := stabilize.Confirm(l)
	if rr == nil {
		return cerr
	}
	fmt.Fprintf(out, "replayed %s: protocol %s, %d ops, %d deliveries\n",
		file, rr.Protocol, rr.Ops, len(rr.Delivered))
	if rr.StaleSkipped > 0 || rr.DecisionsExhausted {
		fmt.Fprintf(out, "note: %d infeasible stale deliveries skipped, decisions exhausted: %v\n",
			rr.StaleSkipped, rr.DecisionsExhausted)
	}
	if rr.Verdict != nil {
		fmt.Fprintf(out, "verdict: %v\n", rr.Verdict)
	} else {
		fmt.Fprintf(out, "verdict: safe (PL1, DL1, DL2 hold)\n")
	}
	if rr.DL3 != nil {
		fmt.Fprintf(out, "liveness: %v\n", rr.DL3)
	}
	if *verbose {
		fmt.Fprint(out, rr.Log.String())
	}
	if cerr != nil {
		return cerr
	}
	if rr.HadRecordedVerdict {
		fmt.Fprintf(out, "recorded verdict reproduced\n")
	}
	return nil
}

func cmdShrink(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shrink", flag.ContinueOnError)
	outPath := fs.String("o", "min.nft", "output file for the shrunk trace")
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	l, err := trace.ReadFile(file)
	if err != nil {
		return err
	}
	if a, ok := l.Meta[stabilize.MetaAmnesty]; ok {
		// The shrinker's oracle is the clean-start checkers, which excuse
		// nothing: it would cut a corrupted-start witness down to a fault
		// its amnesty excuses, and the shrunk file would claim a divergence
		// it does not show.
		return fmt.Errorf("shrink: %s is a corrupted-start certificate (amnesty %s, claim %q); shrink judges clean starts only and would not preserve the claim",
			file, a, l.Meta[stabilize.MetaStabilize])
	}
	sr, err := replay.Shrink(l)
	if err != nil {
		return err
	}
	if err := trace.WriteFile(*outPath, sr.Log); err != nil {
		return err
	}
	fmt.Fprintf(out, "shrunk %s -> %s preserving %s violation (oracle %s)\n",
		file, *outPath, sr.Property, sr.Oracle)
	fmt.Fprintf(out, "events: %d -> %d, ops: %d -> %d (%d replays)\n",
		sr.OriginalEvents, sr.FinalEvents, sr.OriginalOps, sr.FinalOps, sr.Replays)
	return nil
}

func cmdCertifyLivelock(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("certify-livelock", flag.ContinueOnError)
	var (
		outPath = fs.String("o", "livelock.nft", "output file for the pumped certificate")
		pump    = fs.Int("pump", replay.DefaultPump, "cycle repetitions in the emitted certificate")
		budget  = fs.Int("budget", replay.DefaultDriveBudget, "closing-drive round budget")
	)
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	if *pump < 1 {
		// The certificate must repeat its cycle at least once, and the
		// verification replay must check the count the certificate states.
		return fmt.Errorf("certify-livelock: -pump must be at least 1, got %d", *pump)
	}
	l, err := trace.ReadFile(file)
	if err != nil {
		return err
	}
	cert, err := replay.CertifyLivelock(l, replay.CertifyOptions{DriveBudget: *budget, Pump: *pump})
	if err != nil {
		return err
	}
	pumped := cert.Pumped(*pump)
	if err := trace.WriteFile(*outPath, pumped); err != nil {
		return err
	}
	fmt.Fprintf(out, "certified livelock in %s: protocol %s\n", file, cert.Protocol)
	fmt.Fprintf(out, "prefix %d ops, cycle %d ops, pumped x%d -> %s\n",
		cert.PrefixOps, cert.CycleOps, *pump, *outPath)
	fmt.Fprintf(out, "liveness: %v\n", cert.DL3)
	fmt.Fprintf(out, "repeated configuration: %q\n", cert.RepeatedKey)
	return nil
}

func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	md := fs.Bool("md", false, "render as markdown")
	file, err := parseWithFile(fs, args)
	if err != nil {
		return err
	}
	l, err := trace.ReadFile(file)
	if err != nil {
		return err
	}
	s := trace.Collect(l)

	meta := make([]string, 0, len(l.Meta))
	for k, v := range l.Meta {
		meta = append(meta, k+"="+v)
	}
	sort.Strings(meta)
	verdict := "none recorded"
	if s.HasVerdict {
		verdict = "passed"
		if s.Verdict != "" {
			verdict = s.Verdict + " violated"
		}
	}
	tbl := &core.Table{
		ID:      "trace",
		Title:   file,
		Note:    strings.Join(meta, ", ") + "; verdict: " + verdict,
		Columns: []string{"metric", "value"},
	}
	tbl.AddRow("events", s.Events)
	tbl.AddRow("driver ops", s.Ops)
	kinds := make([]trace.Kind, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		tbl.AddRow("  "+k.String(), s.ByKind[k])
	}
	tbl.AddRow("messages submitted", s.Messages)
	tbl.AddRow("messages delivered", s.Deliveries)
	tbl.AddRow("data pkts sent/recv", fmt.Sprintf("%d/%d", s.DataSends, s.DataRecvs))
	tbl.AddRow("ack pkts sent/recv", fmt.Sprintf("%d/%d", s.AckSends, s.AckRecvs))
	tbl.AddRow("stale deliveries", s.Stales)
	tbl.AddRow("distinct headers", s.Headers)
	tbl.AddRow("decisions deliver/delay/drop", fmt.Sprintf("%d/%d/%d",
		s.Decisions[trace.DeliverNow], s.Decisions[trace.Delay], s.Decisions[trace.Drop]))
	if *md {
		return tbl.RenderMarkdown(out)
	}
	return tbl.Render(out)
}
