package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/replay"
	"repro/internal/trace"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestNoArgsUsage(t *testing.T) {
	code, _, stderr := runCmd(t)
	if code != 2 || !strings.Contains(stderr, "usage:") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestHelpListsAnalyzers(t *testing.T) {
	code, stdout, _ := runCmd(t, "help")
	if code != 0 {
		t.Fatalf("help exited %d", code)
	}
	for _, name := range []string{
		"wallclock:", "globalrand:", "maprange:", "statekey:",
		"nextpkt:", "internlocal:", "freelist:",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("help output lacks %s", name)
		}
	}
}

func TestAuditSingleProtocol(t *testing.T) {
	code, stdout, stderr := runCmd(t, "audit", "altbit")
	if code != 0 {
		t.Fatalf("audit altbit exited %d: %s", code, stderr)
	}
	for _, want := range []string{"protocol:  altbit", "k_t:       4", "k_r:       2", "verdict:   CERTIFIED"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
}

func TestAuditAll(t *testing.T) {
	// stabdl2's 8-label alphabet exhausts at ~35k joint states, so the
	// smoke budget is 65536 rather than the old 16384.
	code, stdout, stderr := runCmd(t, "audit", "-all", "-maxstates", "65536")
	if code != 0 {
		t.Fatalf("audit -all exited %d: %s", code, stderr)
	}
	// Every registered protocol — core and transport — plus the
	// broken specimens gets a report.
	for _, name := range []string{
		"altbit", "cheat1", "cntexp", "cntk4", "cntlinear", "seqnum",
		"stabdl2", "stabnaive",
		"swindow-s4-w2", "swindow-unbounded-w2", "gbn-s4-w2", "gbn-s8-w4",
		"livelock", "cntnobind",
	} {
		if !strings.Contains(stdout, "protocol:  "+name+"\n") {
			t.Errorf("audit -all output lacks %s", name)
		}
	}
	if strings.Contains(stdout, "FAIL") {
		t.Errorf("audit -all reports a FAIL:\n%s", stdout)
	}
}

func TestAuditTransportByName(t *testing.T) {
	code, stdout, stderr := runCmd(t, "audit", "gbn-s4-w2")
	if code != 0 {
		t.Fatalf("audit gbn-s4-w2 exited %d: %s", code, stderr)
	}
	for _, want := range []string{"protocol:  gbn-s4-w2", "verdict:   CERTIFIED", "alphabet:  8 (bounded)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
}

func TestAuditSweep(t *testing.T) {
	code, stdout, stderr := runCmd(t, "audit", "-sweep", "-maxocc", "2", "-maxstates", "16384", "altbit", "gbn-s4-w2")
	if code != 0 {
		t.Fatalf("audit -sweep exited %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if lines[0] != "protocol\toccupancy\tstates\texact\tk_t\tk_r\tk_t*k_r\theaders" {
		t.Fatalf("sweep table header drifted: %q", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("two protocols swept to occupancy 2 should emit 4 data rows, got %d:\n%s", len(lines)-1, stdout)
	}
	for _, want := range []string{"altbit\t1\t", "altbit\t2\t", "gbn-s4-w2\t1\t", "gbn-s4-w2\t2\t"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("sweep table lacks a %q row:\n%s", want, stdout)
		}
	}
}

func TestAuditSWSweep(t *testing.T) {
	code, stdout, stderr := runCmd(t, "audit", "-swsweep", "-maxs", "4", "-maxstates", "16384")
	if code != 0 {
		t.Fatalf("audit -swsweep exited %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) < 2 || lines[1] != "family\tS\tW\tS*W\tk_t\tk_r\tk_t*k_r\tstates\texhausted" {
		t.Fatalf("swsweep table header drifted:\n%s", stdout)
	}
	// maxs=4 grid: (S=2, W=1) and (S=4, W=1..2) per family — 6 data rows.
	if len(lines) != 8 {
		t.Fatalf("want 6 data rows, got %d:\n%s", len(lines)-2, stdout)
	}
	for _, want := range []string{
		"swindow\t2\t1\t2\t", "swindow\t4\t2\t8\t",
		"gbn\t2\t1\t2\t", "gbn\t4\t2\t8\t",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("swsweep table lacks a %q row:\n%s", want, stdout)
		}
	}
}

func TestSWSweepGridSizing(t *testing.T) {
	for _, r := range swSweepGrid(8) {
		if 2*r.W > r.S {
			t.Errorf("grid emitted undersized space %s S=%d W=%d (needs S >= 2W)", r.Family, r.S, r.W)
		}
	}
	if n := len(swSweepGrid(8)); n != 20 {
		t.Errorf("maxs=8 grid has %d points, want 20 (10 per family)", n)
	}
}

func TestVerifyProvesSoundProtocol(t *testing.T) {
	code, stdout, stderr := runCmd(t, "verify", "seqnum")
	if code != 0 {
		t.Fatalf("verify seqnum exited %d: %s", code, stderr)
	}
	for _, want := range []string{"verdict:    PROVED", "check:      CERTIFIED", "(exhausted)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
}

func TestVerifyWritesReplayableWitness(t *testing.T) {
	// -o points at a directory that does not exist yet: verify must create it.
	dir := filepath.Join(t.TempDir(), "certs")
	code, stdout, stderr := runCmd(t, "verify", "-o", dir, "altbit")
	if code != 0 {
		t.Fatalf("verify altbit exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "VIOLATED (DL1)") {
		t.Fatalf("altbit not violated:\n%s", stdout)
	}
	path := filepath.Join(dir, "altbit-DL1.nft")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("witness file: %v", err)
	}
	defer f.Close()
	wl, err := trace.ReadLog(f)
	if err != nil {
		t.Fatalf("witness decode: %v", err)
	}
	rr, err := replay.Run(wl)
	if err != nil {
		t.Fatalf("witness replay: %v", err)
	}
	if rr.Divergence != nil || rr.Verdict == nil || rr.Verdict.Property != "DL1" {
		t.Fatalf("witness does not reproduce DL1: divergence=%v verdict=%v", rr.Divergence, rr.Verdict)
	}
}

func TestVerifyJSONReport(t *testing.T) {
	code, stdout, stderr := runCmd(t, "verify", "-json", "seqnum")
	if code != 0 {
		t.Fatalf("verify -json exited %d: %s", code, stderr)
	}
	var rep struct {
		Protocol  string `json:"protocol"`
		Verdict   string `json:"verdict"`
		Check     string `json:"check"`
		Exhausted bool   `json:"exhausted"`
		SpaceHash string `json:"spaceHash"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, stdout)
	}
	if rep.Protocol != "seqnum" || rep.Verdict != "PROVED" || rep.Check != "CERTIFIED" ||
		!rep.Exhausted || rep.SpaceHash == "" {
		t.Fatalf("JSON report fields drifted: %+v", rep)
	}
}

func TestStabilizeSweepReports(t *testing.T) {
	code, stdout, stderr := runCmd(t, "stabilize", "stabdl2", "stabnaive")
	if code != 0 {
		t.Fatalf("stabilize exited %d: %s", code, stderr)
	}
	for _, want := range []string{
		"stabilize: stabdl2",
		"converged: 81/81 within amnesty",
		"check:     CONSISTENT",
		"stabilize: stabnaive",
		"check:     CERTIFIED",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
}

func TestStabilizeTableAndWitness(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "scerts")
	code, stdout, stderr := runCmd(t, "stabilize", "-table", "-o", dir, "altbit")
	if code != 0 {
		t.Fatalf("stabilize -table exited %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if lines[0] != "protocol\tseed\tamnesty\tcharges\tconverged\tproperty" {
		t.Fatalf("TSV header drifted: %q", lines[0])
	}
	// 54 seeds plus the header row.
	if len(lines) != 55 {
		t.Fatalf("got %d TSV rows, want 55:\n%s", len(lines), stdout)
	}
	wl, err := trace.ReadFile(filepath.Join(dir, "altbit-stabilize-DL1.nft"))
	if err != nil {
		t.Fatalf("witness: %v", err)
	}
	rr, err := replay.Run(wl)
	if err != nil {
		t.Fatalf("witness replay: %v", err)
	}
	if rr.Divergence != nil {
		t.Fatalf("witness diverged: %v", rr.Divergence)
	}
}

func TestStabilizeUnknownProtocol(t *testing.T) {
	code, _, stderr := runCmd(t, "stabilize", "nosuch")
	if code != 2 || !strings.Contains(stderr, "unknown protocol") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestVerifyUnknownProtocol(t *testing.T) {
	code, _, stderr := runCmd(t, "verify", "nosuch")
	if code != 2 || !strings.Contains(stderr, "unknown protocol") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestAuditUnknownProtocol(t *testing.T) {
	code, _, stderr := runCmd(t, "audit", "nosuch")
	if code != 2 || !strings.Contains(stderr, "unknown protocol") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestAuditJSONReport(t *testing.T) {
	code, stdout, stderr := runCmd(t, "audit", "-json", "altbit")
	if code != 0 {
		t.Fatalf("audit -json exited %d: %s", code, stderr)
	}
	var rep struct {
		Protocol  string `json:"protocol"`
		Verdict   string `json:"verdict"`
		KT        int    `json:"kt"`
		KR        int    `json:"kr"`
		Exhausted bool   `json:"exhausted"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, stdout)
	}
	if rep.Protocol != "altbit" || rep.Verdict != "CERTIFIED" || rep.KT != 4 || rep.KR != 2 || !rep.Exhausted {
		t.Fatalf("JSON report fields drifted: %+v", rep)
	}
}

func TestAuditJSONRejectsSweeps(t *testing.T) {
	code, _, stderr := runCmd(t, "audit", "-json", "-sweep", "altbit")
	if code != 2 || !strings.Contains(stderr, "-json applies to verdict reports") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

// vetmodPath is the checked-in two-package facts fixture module under
// internal/analyze/testdata.
func vetmodPath(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "..", "..", "internal", "analyze", "testdata", "vetmod")
}

// TestCheckJSONFactsFixture drives the standalone loader end to end over the
// facts fixture: the cross-package statekey finding appears in -json output
// with facts on, and vanishes with -nofacts.
func TestCheckJSONFactsFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(vetmodPath(t)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	code, stdout, stderr := runCmd(t, "check", "-json", "./...")
	if code != 1 {
		t.Fatalf("check -json exited %d, want 1: %s%s", code, stdout, stderr)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
		Allowed  bool   `json:"allowed"`
	}
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("check -json output is not valid JSON: %v\n%s", err, stdout)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "statekey" || d.Allowed ||
		!strings.Contains(d.Message, "StateKey calls helper.Render") ||
		!strings.HasSuffix(d.File, "keys.go") || d.Line == 0 {
		t.Fatalf("unexpected diagnostic: %+v", d)
	}

	code, stdout, stderr = runCmd(t, "check", "-nofacts", "./...")
	if code != 0 {
		t.Fatalf("check -nofacts exited %d, want 0 (the finding needs the facts channel): %s%s", code, stdout, stderr)
	}
}

func TestCheckCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	code, stdout, stderr := runCmd(t, "check", "repro/internal/mset")
	if code != 0 {
		t.Fatalf("check exited %d: %s%s", code, stdout, stderr)
	}
}

func TestVettoolBanner(t *testing.T) {
	// cmd/go requires "<name> version devel ... buildID=<hash>".
	// VettoolMain prints to the real stdout; only the exit code is checked
	// here — the full protocol is exercised by TestGoVetIntegration.
	code, _, _ := runCmd(t, "-V=full")
	if code != 0 {
		t.Fatalf("-V=full exited %d", code)
	}
}

// TestGoVetIntegration builds nfvet and drives it through the real go vet
// -vettool protocol over a lint-clean package and a package with a known
// finding, checking both exit statuses.
func TestGoVetIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet; skipped in -short")
	}
	tool := filepath.Join(t.TempDir(), "nfvet")
	build := exec.Command("go", "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building nfvet: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "repro/internal/mset", "repro/internal/protocol")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool over clean packages: %v\n%s", err, out)
	}

	// A module with a finding: synthesize one in a temp dir.
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module vetfixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "main.go"), `package main

import "math/rand"

func main() {
	_ = rand.Intn(10)
}
`)
	vet = exec.Command("go", "vet", "-vettool="+tool, ".")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed a package with a globalrand finding:\n%s", out)
	}
	if !strings.Contains(string(out), "rand.Intn uses the process-global source") {
		t.Fatalf("vet output lacks the expected finding:\n%s", out)
	}
}

// TestGoVetFactsIntegration drives the facts fixture through the real
// cmd/go vet driver: cmd/go runs the helper unit VetxOnly, feeds its vetx to
// the keys unit via PackageVetx, and the cross-package statekey finding must
// surface in the vet output.
func TestGoVetFactsIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet; skipped in -short")
	}
	tool := filepath.Join(t.TempDir(), "nfvet")
	build := exec.Command("go", "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building nfvet: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = vetmodPath(t)
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed the facts fixture; the vetx channel regressed to empty:\n%s", out)
	}
	if !strings.Contains(string(out), "StateKey calls helper.Render") ||
		!strings.Contains(string(out), "fmt.Sprint") {
		t.Fatalf("vet output lacks the cross-package chain:\n%s", out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
