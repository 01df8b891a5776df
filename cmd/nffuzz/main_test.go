package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestFuzzAltbitFindsDL1(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "altbit", "-workers", "1", "-budget", "30000",
		"-seed", "1", "-o", dir, "-q",
	}, &buf)
	if err != nil {
		t.Fatalf("nffuzz: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "violation DL1") {
		t.Fatalf("expected a DL1 violation:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "zero divergence") {
		t.Fatalf("expected the certificate re-check:\n%s", buf.String())
	}
	l, err := trace.ReadFile(filepath.Join(dir, "altbit-DL1.nft"))
	if err != nil {
		t.Fatalf("reading certificate: %v", err)
	}
	if v, ok := l.Verdict(); !ok || v == nil || v.Property != "DL1" {
		t.Fatalf("certificate verdict = %v, %v; want DL1", v, ok)
	}
}

func TestFuzzCheat1FindsDL1(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "cheat1", "-workers", "1", "-budget", "60000",
		"-seed", "1", "-o", dir, "-q",
	}, &buf)
	if err != nil {
		t.Fatalf("nffuzz: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "violation DL1") {
		t.Fatalf("expected a DL1 violation:\n%s", buf.String())
	}
	if _, err := trace.ReadFile(filepath.Join(dir, "cheat1-DL1.nft")); err != nil {
		t.Fatalf("reading certificate: %v", err)
	}
}

// TestFuzzLivelockCertifies is the CLI face of the liveness acceptance
// criterion: fuzzing the livelock protocol must produce a certified DL3
// finding whose pumped certificate passes the built-in -check replay.
func TestFuzzLivelockCertifies(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "livelock", "-workers", "1", "-budget", "2000",
		"-seed", "1", "-o", dir, "-q",
	}, &buf)
	if err != nil {
		t.Fatalf("nffuzz: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "violation DL3") {
		t.Fatalf("expected a DL3 livelock violation:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "livelock cycle pumped x3") {
		t.Fatalf("expected the cycle note:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "zero divergence") {
		t.Fatalf("expected the certificate re-check:\n%s", buf.String())
	}
	l, err := trace.ReadFile(filepath.Join(dir, "livelock-DL3.nft"))
	if err != nil {
		t.Fatalf("reading certificate: %v", err)
	}
	if v, ok := l.Verdict(); !ok || v == nil || v.Property != "DL3" {
		t.Fatalf("certificate verdict = %v, %v; want DL3", v, ok)
	}
}

func TestFuzzSoundProtocolFindsNothing(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "cntlinear", "-workers", "1", "-budget", "2000",
		"-seed", "4", "-o", t.TempDir(), "-q",
	}, &buf)
	if err != nil {
		t.Fatalf("nffuzz: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no violations found") {
		t.Fatalf("expected a clean campaign:\n%s", buf.String())
	}
}

// TestFuzzWriteErrorFails: a certificate that cannot be written is a
// campaign error, so nffuzz still reports the finding but fails.
func TestFuzzWriteErrorFails(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "altbit", "-workers", "1", "-budget", "30000",
		"-seed", "1", "-o", filepath.Join(file, "certs"), "-q",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "out dir") {
		t.Fatalf("nffuzz error = %v, want the out-dir failure\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "violation DL1") {
		t.Fatalf("expected the DL1 finding despite the write error:\n%s", buf.String())
	}
}

func TestFuzzUnknownProtocol(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "nope"}, &buf); err == nil {
		t.Fatal("expected an error for an unknown protocol")
	}
}
