// Command nffuzz is the coverage-guided protocol/channel fuzzer: it mutates
// channel decision streams and driver schedules, keeps inputs that reach new
// joint protocol states, and promotes inputs whose execution violates a
// correctness property into shrunk, replayable NFT certificates.
//
// Examples:
//
//	nffuzz -protocol altbit -budget 30000 -o certs
//	nftrace replay certs/altbit-DL1.nft
//	nffuzz -protocol cheat1 -workers 8 -budget 200000 -corpus corpus.cheat1 -o certs
//	nffuzz -protocol cntlinear -budget 100000        # sound: expect no findings
//
// A campaign with -corpus resumes from (and keeps extending) the persisted
// corpus directory; re-running after a crash or budget bump loses nothing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/fuzz"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/stabilize"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "nffuzz:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nffuzz", flag.ContinueOnError)
	var (
		protoName = fs.String("protocol", "altbit", "protocol under test: "+strings.Join(protocol.Names(), ", ")+", livelock, cntnobind, cheat<d>, cntk<k>, swindow-s<S>-w<W>, gbn-s<S>-w<W> (-unbounded-w<W> for S=0)")
		workers   = fs.Int("workers", runtime.NumCPU(), "parallel executors; 1 = fully deterministic serial mode")
		budget    = fs.Int64("budget", 50000, "total input executions")
		seed      = fs.Int64("seed", 1, "campaign root seed (per-worker seeds are split from it)")
		corpusDir = fs.String("corpus", "", "corpus directory to resume from and persist to (optional)")
		outDir    = fs.String("o", "certs", "directory for shrunk violation certificates")
		keepGoing = fs.Bool("keep-going", false, "keep fuzzing after the first promoted violation")
		corrupt   = fs.Bool("corrupt", false, "also fuzz the initial configuration: candidates may start corrupted (per the protocol's declared corruption space) and are judged against the corruption's amnesty")
		quiet     = fs.Bool("q", false, "suppress the periodic stats line")
		statsSec  = fs.Duration("stats-every", time.Second, "stats line interval")
		check     = fs.Bool("check", true, "replay each certificate after the campaign and verify its verdict")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	proto, err := replay.LookupProtocol(*protoName)
	if err != nil {
		return err
	}

	cfg := fuzz.Config{
		Protocol:        proto,
		Workers:         *workers,
		Budget:          *budget,
		Seed:            *seed,
		CorpusDir:       *corpusDir,
		OutDir:          *outDir,
		StopOnViolation: !*keepGoing,
		Corrupt:         *corrupt,
		StatsEvery:      *statsSec,
	}
	if !*quiet {
		cfg.Stats = out
	}
	mode := ""
	if cfg.Corrupt {
		mode = ", corrupted starts"
	}
	fmt.Fprintf(out, "fuzzing %s: %d workers, budget %d, seed %d%s\n",
		proto.Name(), cfg.Workers, cfg.Budget, cfg.Seed, mode)
	res, err := fuzz.Run(cfg)
	if err != nil {
		return err
	}

	rate := float64(res.Execs) / res.Elapsed.Seconds()
	fmt.Fprintf(out, "done: %d execs in %v (%.0f/sec), corpus %d, coverage %d, dl3-misses %d\n",
		res.Execs, res.Elapsed.Round(time.Millisecond), rate, res.CorpusSize, res.CoveragePoints, res.DL3Misses)
	if len(res.Violations) == 0 {
		fmt.Fprintf(out, "no violations found\n")
	}
	for _, v := range res.Violations {
		if v.Corruption != "" {
			fmt.Fprintf(out, "violation %s: found at exec %d, %d ops, corrupted start %s", v.Property, v.FoundAtExec, v.Ops, v.Corruption)
		} else {
			fmt.Fprintf(out, "violation %s: found at exec %d, %d ops after shrink", v.Property, v.FoundAtExec, v.Ops)
		}
		if v.CycleOps > 0 {
			fmt.Fprintf(out, ", %d-op livelock cycle pumped x%d", v.CycleOps, replay.DefaultPump)
		}
		if v.Path != "" {
			fmt.Fprintf(out, " -> %s", v.Path)
		}
		fmt.Fprintln(out)
		if *check && v.Cert != nil {
			if _, err := stabilize.Confirm(v.Cert); err != nil {
				return fmt.Errorf("re-checking %s certificate: %w", v.Property, err)
			}
			if v.Corruption != "" {
				fmt.Fprintf(out, "  re-checked: replay reproduces %s over amnesty %s with zero divergence\n", v.Property, v.Cert.Meta[stabilize.MetaAmnesty])
			} else {
				fmt.Fprintf(out, "  re-checked: replay reproduces %s with zero divergence\n", v.Property)
			}
		}
	}
	if len(res.Errors) > 0 {
		return fmt.Errorf("campaign reported %d error(s):\n%w", len(res.Errors), errors.Join(res.Errors...))
	}
	return nil
}
