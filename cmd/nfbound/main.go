// Command nfbound measures a protocol's boundness curves (Mansour &
// Schieber, Definitions 5 and 6): the packets needed to close a semi-valid
// execution, as a function of messages delivered (M_f) or of packets in
// transit (P_f).
//
// Examples:
//
//	nfbound -protocol cntexp -curve mf -n 10
//	nfbound -protocol cntlinear -curve pf -levels 0,4,16,64,256
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bound"
	"repro/internal/protocol"
	"repro/internal/replay"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nfbound:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nfbound", flag.ContinueOnError)
	var (
		protoName = fs.String("protocol", "cntlinear", "protocol: "+strings.Join(protocol.Names(), ", ")+", livelock, cntnobind, cheat<d>, cntk<k>, swindow-s<S>-w<W>, gbn-s<S>-w<W> (-unbounded-w<W> for S=0)")
		curve     = fs.String("curve", "mf", "curve: mf (Definition 5) or pf (Definition 6)")
		n         = fs.Int("n", 10, "mf: number of messages to sweep")
		levels    = fs.String("levels", "0,4,16,64", "pf: comma-separated in-transit levels")
		budget    = fs.Int("budget", 1<<20, "closing-extension step budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := replay.LookupProtocol(*protoName)
	if err != nil {
		return err
	}

	switch *curve {
	case "mf":
		samples, err := bound.MeasureMf(p, *n, *budget)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "M_f-boundness of %s (Definition 5): closing cost after i messages\n", p.Name())
		fmt.Fprintf(out, "%12s  %14s\n", "messages i", "sp^t→r(β)")
		for _, s := range samples {
			fmt.Fprintf(out, "%12d  %14d\n", s.MessagesDelivered, s.Cost)
		}
		return nil
	case "pf":
		ls, err := parseLevels(*levels)
		if err != nil {
			return err
		}
		samples, err := bound.MeasurePf(p, ls, *budget)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "P_f-boundness of %s (Definition 6): closing cost vs packets in transit\n", p.Name())
		fmt.Fprintf(out, "%12s  %14s\n", "in transit", "sp^t→r(β)")
		for _, s := range samples {
			fmt.Fprintf(out, "%12d  %14d\n", s.InTransit, s.Cost)
		}
		return nil
	default:
		return fmt.Errorf("unknown curve %q (use mf or pf)", *curve)
	}
}

func parseLevels(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad level %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no levels given")
	}
	return out, nil
}
