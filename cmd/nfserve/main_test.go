package main

import (
	"bytes"
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/replay"
	"repro/internal/trace"
)

// TestLoadReplayShrink drives the whole production loop through the CLI:
// a load run whose chaos provokes DL1 violations on live sockets, a refused
// second load into its store, ls over the store, and replay-from-production
// shrinking the first violating session to a certificate that the replay
// engine re-confirms.
func TestLoadReplayShrink(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "soak")
	var out bytes.Buffer
	err := run([]string{"load",
		"-sessions", "12", "-protocols", "altbit",
		"-hold", "0.3", "-dup", "0.2", "-seed", "1",
		"-store", store, "-workers", "4",
	}, &out)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, out.String())
	}
	for _, want := range []string{"recorded            12", "errors              0", "DL1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("load output missing %q:\n%s", want, out.String())
		}
	}

	// A second run into the recorded store is refused; the steps below
	// read the first run's recordings whole.
	out.Reset()
	if err := run([]string{"load", "-sessions", "1", "-store", store}, &out); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("load into a recorded store: %v, want fs.ErrExist", err)
	}

	out.Reset()
	if err := run([]string{"ls", "-store", store, "-violations"}, &out); err != nil {
		t.Fatalf("ls: %v", err)
	}
	if !strings.Contains(out.String(), "DL1") {
		t.Errorf("ls -violations lists no DL1 session:\n%s", out.String())
	}

	cert := filepath.Join(dir, "cert.nft")
	out.Reset()
	if err := run([]string{"replay", "-store", store, "-shrink", "-o", cert}, &out); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replayed bit for bit") ||
		!strings.Contains(out.String(), "minimal DL1 certificate") {
		t.Errorf("replay output:\n%s", out.String())
	}

	l, err := trace.ReadFile(cert)
	if err != nil {
		t.Fatalf("certificate unreadable: %v", err)
	}
	rr, err := replay.Run(l)
	if err != nil {
		t.Fatalf("certificate replay: %v", err)
	}
	if rr.Verdict == nil || rr.Verdict.Property != "DL1" || rr.Divergence != nil {
		t.Fatalf("certificate does not reproduce the DL1: verdict=%v divergence=%v",
			rr.Verdict, rr.Divergence)
	}
}

// TestServeMax pins serve's bounded mode: -max runs that many sessions and
// returns without needing a signal.
func TestServeMax(t *testing.T) {
	store := filepath.Join(t.TempDir(), "soak")
	var out bytes.Buffer
	err := run([]string{"serve",
		"-max", "4", "-protocols", "seqnum", "-seed", "3",
		"-store", store, "-workers", "2",
	}, &out)
	if err != nil {
		t.Fatalf("serve -max: %v\n%s", err, out.String())
	}
	m, err := trace.ReadManifestFile(store)
	if err != nil {
		t.Fatalf("store index: %v", err)
	}
	if len(m.Entries) != 4 {
		t.Fatalf("serve -max 4 recorded %d sessions", len(m.Entries))
	}
}

// TestCLIErrors pins the command error paths.
func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"nosuch"},
		{"load", "-sessions", "0"},
		{"ls"},
		{"replay"},
		{"replay", "-store", t.TempDir()}, // no shard files
		{"load", "-protocols", "nosuchproto", "-sessions", "1"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
