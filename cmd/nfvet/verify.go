package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/verify"
)

// runVerify drives the bounded model checker (internal/verify) over the
// named protocols — or, with -all, every registered protocol and transport
// protocol — and prints one report each. A VIOLATED verdict's witness is
// written as a replayable .nft counterexample when -o is set; -json writes
// each report as a machine-readable proof artifact next to it. Exit status
// is nonzero iff a protocol's check is FAIL (the verdict contradicts its
// declared DL status, or a witness failed replay confirmation).
func runVerify(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("nfvet verify", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		all       = fs.Bool("all", false, "verify every registered protocol (incl. transport) plus livelock and cntnobind")
		maxOcc    = fs.Int("maxocc", 2, "per-channel occupancy cap L (the PROVED-up-to-L bound)")
		maxMsg    = fs.Int("maxmsg", 3, "submitted-message bound")
		maxStates = fs.Int("maxstates", 1<<18, "exploration budget (BUDGET verdict when hit)")
		noPOR     = fs.Bool("nopor", false, "disable the lazy-drop partial-order reduction")
		outDir    = fs.String("o", "", "write VIOLATED witnesses as <protocol>-<property>.nft under this directory")
		jsonOut   = fs.Bool("json", false, "print machine-readable JSON reports instead of text")
		stab      = fs.Bool("stabilize", false, "seed the frontier with every bounded corrupted start: PROVED means the protocol self-stabilizes within the bounds")
		maxPoison = fs.Int("maxpoison", 1, "poison packets pre-loaded per channel in -stabilize mode (capped at -maxocc)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := fs.Args()
	if *all {
		names = append(protocol.Names(), transport.Names()...)
		names = append(names, "livelock", "cntnobind")
	}
	if len(names) == 0 {
		fmt.Fprintln(errw, "nfvet verify: name protocols or pass -all (known: "+
			strings.Join(protocol.Names(), ", ")+"; "+
			strings.Join(transport.Names(), ", ")+
			"; plus livelock, cntnobind, cheat<d>, cntk<k>, swindow-s<S>-w<W>, gbn-s<S>-w<W>)")
		return 2
	}

	cfg := verify.Config{
		Occupancy:   *maxOcc,
		MaxMessages: *maxMsg,
		MaxStates:   *maxStates,
		NoPOR:       *noPOR,
		Stabilize:   *stab,
		MaxPoison:   *maxPoison,
	}
	failed := 0
	for i, name := range names {
		p, err := replay.LookupProtocol(name)
		if err != nil {
			fmt.Fprintln(errw, "nfvet verify:", err)
			return 2
		}
		rep, err := verify.Run(p, cfg)
		if err != nil {
			fmt.Fprintln(errw, "nfvet verify:", err)
			return 2
		}
		if *jsonOut {
			data, err := rep.JSON()
			if err != nil {
				fmt.Fprintln(errw, "nfvet verify:", err)
				return 2
			}
			fmt.Fprintln(out, string(data))
		} else {
			if i > 0 {
				fmt.Fprintln(out)
			}
			fmt.Fprint(out, rep)
		}
		if *outDir != "" && rep.Witness != nil {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(errw, "nfvet verify:", err)
				return 2
			}
			path := filepath.Join(*outDir, rep.Protocol+"-"+rep.Property+".nft")
			if err := trace.WriteFile(path, rep.Witness); err != nil {
				fmt.Fprintln(errw, "nfvet verify:", err)
				return 2
			}
			if !*jsonOut {
				fmt.Fprintf(out, "  witness:  %s\n", path)
			}
		}
		if rep.Check == verify.CheckFail {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(errw, "nfvet verify: %d protocol(s) FAIL\n", failed)
		return 1
	}
	return 0
}
