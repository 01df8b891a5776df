//go:build unix

package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/trace"
)

// TestMain runs this binary as the nfserve command when NFSERVE_TEST_MAIN
// is set, so that a test can kill it or limit what it writes:
// NFSERVE_FSIZE then caps every file it writes at that many bytes.
func TestMain(m *testing.M) {
	if os.Getenv("NFSERVE_TEST_MAIN") == "" {
		os.Exit(m.Run())
	}
	if n := os.Getenv("NFSERVE_FSIZE"); n != "" {
		var lim syscall.Rlimit // its field type varies by platform
		_, err := fmt.Sscan(n, &lim.Cur)
		if err == nil {
			lim.Max = lim.Cur
			err = syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nfserve test: limiting file size:", err)
			os.Exit(2)
		}
	}
	main()
	os.Exit(0)
}

// command re-executes this test binary as the nfserve command.
func command(t *testing.T, env []string, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(append(os.Environ(), "NFSERVE_TEST_MAIN=1"), env...)
	return cmd
}

// TestServeKilledStoreRecovers SIGKILLs a serve process mid-soak. The store
// it leaves must list, every listed session must replay to its recorded
// verdict with no divergence, and at most -workers ids below the highest
// recorded one may be missing: the sessions in flight when it died.
func TestServeKilledStoreRecovers(t *testing.T) {
	const workers = 8
	store := filepath.Join(t.TempDir(), "soak")
	cmd := command(t, nil, "serve", "-protocols", "seqnum,altbit", "-hold", "0.2", "-dup", "0.1",
		"-seed", "1", "-workers", strconv.Itoa(workers), "-store", store)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Listing the store under its live writer is the recovery path too.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if m, err := trace.ScanShards(store); err == nil && len(m.Entries) >= 32 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("serve recorded fewer than 32 sessions in a minute")
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // killed: its exit status says so

	m, err := trace.ScanShards(store)
	if err != nil {
		t.Fatalf("killed store does not list: %v", err)
	}
	highest := -1
	for _, e := range m.Entries {
		id, err := strconv.Atoi(strings.TrimPrefix(e.Session, "s"))
		if err != nil {
			t.Fatalf("session key %q: %v", e.Session, err)
		}
		highest = max(highest, id)
		l, err := trace.ReadShardLog(store, m, e.Session)
		if err != nil {
			t.Fatalf("read %s: %v", e.Session, err)
		}
		rr, err := replay.Run(l)
		if err != nil {
			t.Fatalf("replay %s: %v", e.Session, err)
		}
		if rr.Divergence != nil || !rr.VerdictMatches {
			t.Errorf("session %s: divergence %v, verdict matches %v", e.Session, rr.Divergence, rr.VerdictMatches)
		}
	}
	if missing := highest + 1 - len(m.Entries); missing > workers {
		t.Fatalf("%d of ids 0..%d missing, more than the %d in flight", missing, highest, workers)
	}
	t.Logf("recovered %d sessions, highest id %d", len(m.Entries), highest)
}

// TestLoadFailsOnLostRecordings runs load under a file-size limit that
// fails its shard writes partway. It must still print its report, then
// fail because it recorded fewer sessions than it ran; the store keeps
// every frame written before the limit.
func TestLoadFailsOnLostRecordings(t *testing.T) {
	store := filepath.Join(t.TempDir(), "soak")
	cmd := command(t, []string{"NFSERVE_FSIZE=2048"}, "load", "-sessions", "16", "-protocols", "seqnum",
		"-workers", "2", "-shards", "1", "-store", store)
	out, err := cmd.Output()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("load that lost recordings: %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(ee.Stderr), "of 16 sessions") || !strings.Contains(string(out), "soak run summary") {
		t.Fatalf("stderr %q; stdout:\n%s", ee.Stderr, out)
	}
	m, err := trace.ScanShards(store)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Entries); n == 0 || n >= 16 {
		t.Fatalf("store under a 2048-byte limit lists %d of 16 sessions", n)
	}
}
