// Command nfsim runs a data link protocol over a configured non-FIFO
// channel and reports the paper's three efficiency metrics — packets,
// headers, space — together with the trace-checker verdict.
//
// Examples:
//
//	nfsim -protocol seqnum -n 20 -q 0.25 -seed 7
//	nfsim -protocol cntlinear -n 8 -delay-first 64
//	nfsim -protocol cntexp -n 10 -check
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nfsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nfsim", flag.ContinueOnError)
	var (
		protoName  = fs.String("protocol", "seqnum", "protocol: "+strings.Join(protocol.Names(), ", ")+", livelock, cntnobind, cheat<d>, cntk<k>, swindow-s<S>-w<W>, gbn-s<S>-w<W> (-unbounded-w<W> for S=0)")
		n          = fs.Int("n", 10, "number of messages to deliver")
		q          = fs.Float64("q", 0, "probabilistic channel delay probability on the data channel")
		qAck       = fs.Float64("q-ack", 0, "probabilistic delay probability on the ack channel")
		dropEvery  = fs.Int("drop-every", 0, "drop every k-th data packet")
		delayFirst = fs.Int("delay-first", 0, "delay the first k data packets (they stay in transit)")
		seed       = fs.Int64("seed", 1, "random seed for probabilistic channels")
		check      = fs.Bool("check", true, "run the DL1/DL2/DL3/PL1 trace checkers")
		showTrace  = fs.Bool("trace", false, "print the full execution trace")
		constant   = fs.Bool("same-message", false, "use the paper's all-messages-identical convention")
		budget     = fs.Int("budget", 1<<20, "liveness step budget per message")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := replay.LookupProtocol(*protoName)
	if err != nil {
		return err
	}

	dataPolicy, err := buildPolicy(*q, *dropEvery, *delayFirst, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	ackPolicy, err := buildPolicy(*qAck, 0, 0, rand.New(rand.NewSource(*seed+1)))
	if err != nil {
		return err
	}

	cfg := sim.Config{
		Protocol:    p,
		DataPolicy:  dataPolicy,
		AckPolicy:   ackPolicy,
		StepBudget:  *budget,
		RecordTrace: *check || *showTrace,
	}
	if *constant {
		cfg.Payload = func(int) string { return "m" }
	}
	res := sim.NewRunner(cfg).Run(*n)
	if res.Err != nil {
		return fmt.Errorf("run: %w", res.Err)
	}

	fmt.Fprintf(out, "protocol          %s\n", p.Name())
	fmt.Fprintf(out, "messages          %d delivered\n", len(res.Delivered))
	fmt.Fprintf(out, "data packets      %d total (%s per message)\n",
		res.Metrics.TotalDataPackets, perMessage(res.Metrics.DataPacketsPerMessage))
	fmt.Fprintf(out, "ack packets       %d total\n", res.Metrics.TotalAckPackets)
	fmt.Fprintf(out, "distinct headers  %d\n", res.Metrics.HeadersUsed)
	fmt.Fprintf(out, "peak in transit   %d (t→r)\n", res.Metrics.MaxInTransitData)
	fmt.Fprintf(out, "peak state size   %d\n", res.Metrics.MaxStateSize)

	if *check {
		if err := ioa.CheckValid(res.Trace); err != nil {
			fmt.Fprintf(out, "checkers          FAILED: %v\n", err)
			return errors.New("trace check failed")
		}
		fmt.Fprintf(out, "checkers          PL1 ✓  DL1 ✓  DL2 ✓  DL3 ✓\n")
	}
	if *showTrace {
		fmt.Fprintf(out, "\ntrace:\n%s", res.Trace)
	}
	return nil
}

func buildPolicy(q float64, dropEvery, delayFirst int, rng *rand.Rand) (channel.Policy, error) {
	set := 0
	if q > 0 {
		set++
	}
	if dropEvery > 0 {
		set++
	}
	if delayFirst > 0 {
		set++
	}
	if set > 1 {
		return nil, errors.New("choose at most one of -q, -drop-every, -delay-first per channel")
	}
	switch {
	case q > 0:
		if q >= 1 {
			return nil, fmt.Errorf("q = %g must be in [0, 1)", q)
		}
		return channel.Probabilistic(q, rng), nil
	case dropEvery > 0:
		return channel.DropEvery(dropEvery), nil
	case delayFirst > 0:
		return channel.DelayFirst(delayFirst), nil
	default:
		return channel.Reliable(), nil
	}
}

func perMessage(counts []int) string {
	if len(counts) == 0 {
		return "-"
	}
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	return fmt.Sprintf("min %d / med %d / max %d", sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1])
}
