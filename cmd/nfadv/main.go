// Command nfadv runs one of the paper's lower-bound constructions against a
// protocol and prints either a machine-checked violation certificate or a
// resistance report.
//
// Examples:
//
//	nfadv -attack replay -protocol altbit
//	nfadv -attack headerbudget -protocol cheat1 -copies 3
//	nfadv -attack pump -protocol livelock
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/adversary"
	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nfadv:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nfadv", flag.ContinueOnError)
	var (
		attack    = fs.String("attack", "replay", "attack: replay, headerbudget, pump")
		protoName = fs.String("protocol", "altbit", "protocol: "+strings.Join(protocol.Names(), ", ")+", livelock, cntnobind, cheat<d>, cntk<k>, swindow-s<S>-w<W>, gbn-s<S>-w<W> (-unbounded-w<W> for S=0)")
		stranded  = fs.Int("stranded", 2, "replay: stale copies to strand before attacking")
		messages  = fs.Int("messages", 2, "messages to deliver during setup")
		copies    = fs.Int("copies", 3, "headerbudget: copies to strand per header")
		depth     = fs.Int("depth", 16, "replay search depth")
		nodes     = fs.Int("nodes", 1<<16, "replay search node budget")
		budget    = fs.Int("budget", 1<<16, "pump step budget")
		full      = fs.Bool("full-cert", false, "print the complete execution trace of the certificate")
		asJSON    = fs.Bool("json", false, "print the certificate as JSON")
		traceOut  = fs.String("o", "", "write the violating execution as a replayable trace file (replay with nftrace)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := replay.LookupProtocol(*protoName)
	if err != nil {
		return err
	}

	mode := certText
	if *asJSON {
		mode = certJSON
	} else if *full {
		mode = certFull
	}
	switch *attack {
	case "replay":
		return runReplay(out, p, *stranded, *messages, *depth, *nodes, mode, *traceOut)
	case "headerbudget":
		return runHeaderBudget(out, p, *copies, *messages, *depth, *nodes, mode, *traceOut)
	case "pump":
		if *traceOut != "" {
			return fmt.Errorf("-o: the pump attack certifies a liveness violation by state repetition and produces no replayable trace")
		}
		return runPump(out, p, *budget)
	default:
		return fmt.Errorf("unknown attack %q", *attack)
	}
}

// certMode selects how certificates are rendered.
type certMode int

const (
	certText certMode = iota + 1
	certFull
	certJSON
)

func runReplay(out io.Writer, p protocol.Protocol, stranded, messages, depth, nodes int, mode certMode, traceOut string) error {
	cfg := sim.Config{
		Protocol:    p,
		DataPolicy:  channel.DelayFirst(stranded),
		RecordTrace: true,
	}
	if traceOut != "" {
		cfg.TraceLog = trace.NewLog(nil)
	}
	r := sim.NewRunner(cfg)
	for i := 0; i < messages; i++ {
		if err := r.RunMessage(fmt.Sprintf("m%d", i)); err != nil {
			return fmt.Errorf("setup message %d: %w", i, err)
		}
	}
	fmt.Fprintf(out, "setup: delivered %d messages, %d stale copies in transit: %s\n",
		messages, r.ChData.InTransit(), r.ChData.Key())
	rep, err := adversary.ReplaySearch(r, adversary.ReplayConfig{MaxDepth: depth, MaxNodes: nodes})
	if err != nil {
		return err
	}
	return report(out, rep, mode, traceOut)
}

func runHeaderBudget(out io.Writer, p protocol.Protocol, copies, messages, depth, nodes int, mode certMode, traceOut string) error {
	rep, err := adversary.HeaderBudget(p, copies, messages,
		adversary.ReplayConfig{MaxDepth: depth, MaxNodes: nodes, RecordOps: traceOut != ""})
	if err != nil {
		return err
	}
	if !rep.Bounded {
		fmt.Fprintf(out, "protocol %s has an unbounded alphabet: the Theorem 3.1 construction is\n", p.Name())
		fmt.Fprintf(out, "inapplicable — the protocol pays the theorem's price in headers (≥ n).\n")
		return nil
	}
	fmt.Fprintf(out, "accumulated %d copies of each of %d data headers %v\n",
		rep.CopiesPerHeader, len(rep.HeadersAccumulated), rep.HeadersAccumulated)
	return report(out, rep.Replay, mode, traceOut)
}

func report(out io.Writer, rep adversary.ReplayReport, mode certMode, traceOut string) error {
	if rep.Cert == nil {
		fmt.Fprintf(out, "RESISTED: no violating replay schedule found (%d deliveries explored", rep.Nodes)
		if rep.Truncated {
			fmt.Fprintf(out, ", search truncated by node budget")
		}
		fmt.Fprintf(out, ")\n")
		if traceOut != "" {
			fmt.Fprintf(out, "no trace written: there is no violation to record\n")
		}
		return nil
	}
	if err := rep.Cert.Recheck(); err != nil {
		return fmt.Errorf("certificate failed recheck: %w", err)
	}
	if traceOut != "" {
		if rep.Cert.Log == nil {
			return fmt.Errorf("-o: attack did not record a replayable trace")
		}
		if err := trace.WriteFile(traceOut, rep.Cert.Log); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(out, "replayable trace written to %s (%d events)\n", traceOut, rep.Cert.Log.Len())
	}
	switch mode {
	case certJSON:
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep.Cert)
	case certFull:
		fmt.Fprintln(out, rep.Cert)
	default:
		fmt.Fprintf(out, "BROKEN: %v\n", rep.Cert.Violation)
		fmt.Fprintf(out, "replayed stale copies:")
		for _, pk := range rep.Cert.Replayed {
			fmt.Fprintf(out, " %s", pk)
		}
		fmt.Fprintf(out, "\nspurious deliveries: %v\n", rep.Cert.ExtraDeliveries)
		fmt.Fprintf(out, "(re-run with -full-cert for the complete execution)\n")
	}
	return nil
}

func runPump(out io.Writer, p protocol.Protocol, budget int) error {
	r := sim.NewRunner(sim.Config{Protocol: p})
	r.SubmitMsg("m")
	rep, err := adversary.Pump(r, budget)
	if err != nil {
		return err
	}
	switch {
	case rep.Closed:
		fmt.Fprintf(out, "CLOSED: the optimal-channel extension delivers the message with %d packets\n", rep.Cost)
	case rep.Pumped:
		fmt.Fprintf(out, "PUMPED: joint state repeated after %d steps with no delivery —\n", rep.Steps)
		fmt.Fprintf(out, "the channel can loop this segment forever (DL3 liveness violation).\n")
		fmt.Fprintf(out, "repeated state: %s\n", rep.RepeatedState)
	}
	return nil
}
