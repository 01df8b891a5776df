// Command nfexplore runs the bounded explicit-state model checker against a
// protocol: every interleaving of protocol steps and channel behaviours
// within the bounds, over the non-FIFO or the lossy-FIFO discipline. It
// prints either a shortest counterexample or a safe-within-bounds report.
//
// Examples:
//
//	nfexplore -protocol altbit
//	nfexplore -protocol altbit -fifo -drop          # safe: reordering is the culprit
//	nfexplore -protocol swindow-s2-w1 -messages 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nfexplore:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nfexplore", flag.ContinueOnError)
	var (
		protoName = fs.String("protocol", "altbit", "protocol: "+strings.Join(protocol.Names(), ", ")+", livelock, cntnobind, cheat<d>, cntk<k>, swindow-s<S>-w<W>, gbn-s<S>-w<W> (-unbounded-w<W> for S=0)")
		messages  = fs.Int("messages", 0, "messages to submit (default 2)")
		dataSends = fs.Int("data-sends", 0, "cap on data packet sends (default 3×messages)")
		ackSends  = fs.Int("ack-sends", 0, "cap on ack packet sends (default 3×messages)")
		fifo      = fs.Bool("fifo", false, "explore the order-preserving (FIFO) discipline")
		drop      = fs.Bool("drop", false, "also explore permanent packet loss")
		maxStates = fs.Int("max-states", 1<<20, "state budget")
		constant  = fs.Bool("same-message", false, "all-messages-identical convention")
		showCex   = fs.Bool("cex", true, "print the counterexample trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := replay.LookupProtocol(*protoName)
	if err != nil {
		return err
	}

	rep, err := explore.Explore(p, explore.Config{
		Messages:        *messages,
		MaxDataSends:    *dataSends,
		MaxAckSends:     *ackSends,
		FIFO:            *fifo,
		AllowDrop:       *drop,
		MaxStates:       *maxStates,
		ConstantPayload: *constant,
	})
	if err != nil {
		return err
	}

	disc := "non-FIFO"
	if *fifo {
		disc = "FIFO+loss"
	}
	fmt.Fprintf(out, "protocol    %s\n", p.Name())
	fmt.Fprintf(out, "discipline  %s\n", disc)
	fmt.Fprintf(out, "states      %d (%d transitions)\n", rep.States, rep.Transitions)

	if rep.Violation == nil {
		if rep.Exhausted {
			fmt.Fprintf(out, "verdict     SAFE within bounds — the full bounded space was exhausted\n")
		} else {
			fmt.Fprintf(out, "verdict     UNDECIDED — state budget exhausted before covering the space\n")
		}
		return nil
	}
	fmt.Fprintf(out, "verdict     BROKEN — %v\n", rep.Violation)
	if err := ioa.CheckSafety(rep.Counterexample); err == nil {
		return fmt.Errorf("internal error: counterexample passes the safety checkers")
	}
	if *showCex {
		fmt.Fprintf(out, "shortest counterexample (%d events):\n%s", len(rep.Counterexample), rep.Counterexample)
	}
	return nil
}
