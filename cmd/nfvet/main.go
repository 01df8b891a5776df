// Command nfvet is the repo's determinism lint suite and static boundness
// auditor.
//
// As a vet tool it speaks the `go vet -vettool` protocol, running the seven
// analyzers (wallclock, globalrand, maprange, statekey, nextpkt,
// internlocal, freelist) over every compilation unit, test files included.
// Facts ride the protocol's vetx channel: each unit exports purity verdicts
// for its exported functions and reads its dependencies' verdicts back, so
// the statekey lint proves purity module-wide, across package boundaries:
//
//	go build -o bin/nfvet ./cmd/nfvet
//	go vet -vettool=$PWD/bin/nfvet ./...
//
// Standalone subcommands:
//
//	nfvet check [packages]   lint the packages (non-test files) directly,
//	                         without the go vet driver; packages are
//	                         analyzed in dependency order with an in-memory
//	                         facts channel (-nofacts for package-local
//	                         precision, -json for machine-readable
//	                         diagnostics including suppressed allows)
//	nfvet audit -all         audit every registered protocol's boundness,
//	                         including the transport protocols
//	nfvet audit altbit cntk4 audit specific protocols (replay names work:
//	                         livelock, cntnobind, cheat<d>, cntk<k>,
//	                         swindow-s<S>-w<W>, gbn-s<S>-w<W>)
//	nfvet audit -sweep -all  emit the k_t/k_r-vs-occupancy curve as a TSV
//	                         table (Theorem 2.1's pumping bound vs the cap)
//	nfvet audit -swsweep     audit the transport (S, W) grid at a fixed
//	                         occupancy and emit k_t/k_r against S·W as a
//	                         TSV table (the pumping bound vs the sizing)
//	nfvet verify -all        exhaustively explore each protocol's bounded
//	                         configuration space: PROVE DL-safety up to the
//	                         occupancy/message bounds, or emit a
//	                         replay-confirmed NFT counterexample
//	nfvet verify -stabilize  seed the exploration with every bounded
//	                         corrupted start: PROVED means the protocol
//	                         self-stabilizes within the bounds
//	nfvet stabilize -all     sweep arbitrary-start convergence seed by
//	                         seed (the quick per-configuration check;
//	                         verify -stabilize is the exhaustive prover)
//	nfvet help               analyzer catalog
//
// The audit enumerates the joint control states (q_t, q_r) reachable under
// bounded channel occupancy and checks each protocol's declared
// protocol.Bounds: the k_t·k_r joint-state count Theorem 2.1's pumping
// adversary exploits, and the bounded header alphabet Theorems 3.1/4.1
// presuppose. Exit status is nonzero iff a lint finding or a FAIL verdict
// was produced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analyze"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		usage(errw)
		return 2
	}
	switch args[0] {
	case "check":
		return runCheck(args[1:], out, errw)
	case "audit":
		return runAudit(args[1:], out, errw)
	case "verify":
		return runVerify(args[1:], out, errw)
	case "stabilize":
		return runStabilize(args[1:], out, errw)
	case "help", "-h", "-help", "--help":
		usage(out)
		for _, a := range analyze.Analyzers() {
			fmt.Fprintf(out, "\n%s:\n  %s\n", a.Name, a.Doc)
		}
		return 0
	}
	// Anything else (-V=full, -flags, <unit>.cfg, analyzer-selection flags)
	// is the go vet driver talking to us.
	return analyze.VettoolMain("nfvet", analyze.Analyzers(), args)
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  nfvet check [-json] [-nofacts] [packages]   lint packages (default ./...)
  nfvet audit [-all | names...] [options]     audit protocol boundness
  nfvet verify [-all | names...] [options]    prove DL-safety up to bounds,
                                              or emit a replayable witness
  nfvet stabilize [-all | names...] [options] sweep arbitrary-start
                                              convergence per corrupted seed
  nfvet help                                  analyzer catalog
  go vet -vettool=/path/to/nfvet ./...        lint via the go vet driver
`)
}

// jsonDiag is the machine-readable rendering of one finding, active or
// //nfvet:allow-suppressed, for CI annotation.
type jsonDiag struct {
	File        string `json:"file"`
	Line        int    `json:"line"`
	Col         int    `json:"col"`
	Analyzer    string `json:"analyzer"`
	Message     string `json:"message"`
	Allowed     bool   `json:"allowed"`
	AllowReason string `json:"allowReason,omitempty"`
}

func toJSONDiags(ds []analyze.Diagnostic) []jsonDiag {
	out := make([]jsonDiag, 0, len(ds))
	for _, d := range ds {
		out = append(out, jsonDiag{
			File:        d.Pos.Filename,
			Line:        d.Pos.Line,
			Col:         d.Pos.Column,
			Analyzer:    d.Analyzer,
			Message:     d.Message,
			Allowed:     d.Allowed,
			AllowReason: d.AllowReason,
		})
	}
	return out
}

// runCheck lints the named packages (default ./...) with the standalone
// loader, in dependency order with the in-memory facts channel. The go vet
// driver covers test files too; check is the quick path. Exit status is
// nonzero iff there are active (non-allowed) findings, JSON mode included.
func runCheck(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("nfvet check", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON diagnostics, //nfvet:allow-suppressed findings included")
		noFacts = fs.Bool("nofacts", false, "disable the cross-package facts channel (package-local precision)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(errw, "nfvet:", err)
		return 2
	}
	pkgs, err := analyze.LoadPackages(wd, patterns...)
	if err != nil {
		fmt.Fprintln(errw, "nfvet:", err)
		return 2
	}
	res := analyze.AnalyzeModule(analyze.Analyzers(), pkgs, !*noFacts)
	if *jsonOut {
		all := toJSONDiags(append(append([]analyze.Diagnostic(nil), res.Diags...), res.Suppressed...))
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if a.File != b.File {
				return a.File < b.File
			}
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			if a.Col != b.Col {
				return a.Col < b.Col
			}
			return a.Analyzer < b.Analyzer
		})
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			fmt.Fprintln(errw, "nfvet:", err)
			return 2
		}
		fmt.Fprintln(out, string(data))
	} else {
		for _, d := range res.Diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(errw, "nfvet: %d finding(s)\n", len(res.Diags))
		return 1
	}
	return 0
}

// runAudit audits the named protocols (or, with -all, every registered
// protocol — including the transport protocols — plus the broken
// specimens) and prints one report each. With -sweep it instead prints the
// k_t/k_r-vs-occupancy curve for the named protocols as one TSV table.
func runAudit(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("nfvet audit", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		all       = fs.Bool("all", false, "audit every registered protocol (incl. transport) plus livelock and cntnobind")
		occupancy = fs.Int("occupancy", 2, "max in-transit packets per channel")
		maxStates = fs.Int("maxstates", 1<<16, "joint-state enumeration budget")
		sweep     = fs.Bool("sweep", false, "emit the k_t/k_r-vs-occupancy TSV curve instead of verdict reports")
		maxOcc    = fs.Int("maxocc", 4, "largest occupancy cap swept (with -sweep)")
		swsweep   = fs.Bool("swsweep", false, "emit the transport (S, W) grid as a k_t/k_r-vs-S*W TSV table")
		maxS      = fs.Int("maxs", 8, "largest sequence space audited (with -swsweep)")
		jsonOut   = fs.Bool("json", false, "print machine-readable JSON reports instead of text (verdict reports only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && (*sweep || *swsweep) {
		fmt.Fprintln(errw, "nfvet audit: -json applies to verdict reports, not the TSV sweeps")
		return 2
	}
	if *swsweep {
		return runSWSweep(*maxS, analyze.AuditConfig{Occupancy: *occupancy, MaxStates: *maxStates}, out, errw)
	}
	names := fs.Args()
	if *all {
		names = append(protocol.Names(), transport.Names()...)
		names = append(names, "livelock", "cntnobind")
	}
	if len(names) == 0 {
		fmt.Fprintln(errw, "nfvet audit: name protocols or pass -all (known: "+
			strings.Join(protocol.Names(), ", ")+"; "+
			strings.Join(transport.Names(), ", ")+
			"; plus livelock, cntnobind, cheat<d>, cntk<k>, swindow-s<S>-w<W>, gbn-s<S>-w<W>)")
		return 2
	}

	ps := make([]protocol.Protocol, 0, len(names))
	for _, name := range names {
		p, err := replay.LookupProtocol(name)
		if err != nil {
			fmt.Fprintln(errw, "nfvet audit:", err)
			return 2
		}
		ps = append(ps, p)
	}

	if *sweep {
		return runSweep(ps, analyze.SweepConfig{MaxOccupancy: *maxOcc, MaxStates: *maxStates}, out, errw)
	}

	cfg := analyze.AuditConfig{Occupancy: *occupancy, MaxStates: *maxStates}
	failed := 0
	for i, p := range ps {
		rep := analyze.Audit(p, cfg)
		if *jsonOut {
			data, err := rep.JSON()
			if err != nil {
				fmt.Fprintln(errw, "nfvet audit:", err)
				return 2
			}
			fmt.Fprintln(out, string(data))
		} else {
			if i > 0 {
				fmt.Fprintln(out)
			}
			fmt.Fprint(out, rep)
		}
		if rep.Verdict == analyze.VerdictFail {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(errw, "nfvet audit: %d protocol(s) FAIL their declared bounds\n", failed)
		return 1
	}
	return 0
}

// runSweep prints the occupancy sweep for the given protocols and checks
// each curve's monotonicity (Theorem 2.1: a larger cap can only grow the
// reachable joint control space).
func runSweep(ps []protocol.Protocol, cfg analyze.SweepConfig, out, errw io.Writer) int {
	reports := analyze.SweepAll(ps, cfg)
	fmt.Fprint(out, analyze.SweepTable(reports))
	bad := 0
	for _, r := range reports {
		if err := r.CheckMonotone(); err != nil {
			fmt.Fprintln(errw, "nfvet audit:", err)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(errw, "nfvet audit: %d protocol(s) have non-monotone sweep curves\n", bad)
		return 1
	}
	return 0
}
