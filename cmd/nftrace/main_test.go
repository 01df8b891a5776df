package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("nftrace %v: %v\n%s", args, err, buf.String())
	}
	return buf.String()
}

func TestRecordReplayStats(t *testing.T) {
	dir := t.TempDir()
	out := mustRun(t, "record", "-protocol", "altbit", "-messages", "4", "-seed", "2", "-o", dir+"/run.nft")
	if !strings.Contains(out, "recorded altbit") || !strings.Contains(out, "overhead") {
		t.Fatalf("record output:\n%s", out)
	}
	out = mustRun(t, "replay", dir+"/run.nft")
	if !strings.Contains(out, "verdict: safe") {
		t.Fatalf("replay output:\n%s", out)
	}
	out = mustRun(t, "stats", dir+"/run.nft")
	for _, want := range []string{"protocol=altbit", "driver ops", "decisions deliver/delay/drop"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
	out = mustRun(t, "stats", dir+"/run.nft", "-md")
	if !strings.Contains(out, "| metric |") {
		t.Fatalf("markdown stats output:\n%s", out)
	}
}

// violatingFile writes a violating altbit trace via a tiny scripted log:
// the same shape nfadv -o produces, without depending on cmd/nfadv.
func violatingFile(t *testing.T, path string) {
	t.Helper()
	// Script the attack through the replayer itself: build an op log whose
	// decisions strand the first data packet, confirm two messages, then
	// deliver the stale copy.
	l := trace.NewLog(map[string]string{trace.MetaProtocol: "altbit", trace.MetaKind: "sim"})
	emitOp := func(k trace.Kind) { l.Emit(trace.Event{Kind: k}) }
	decide := func(d trace.Decision) {
		l.Emit(trace.Event{Kind: trace.KindDecision, Dir: 1, Decision: d})
	}
	l.Emit(trace.Event{Kind: trace.KindSubmit, Msg: ioa.Message{ID: 0, Payload: "m0"}})
	emitOp(trace.KindTransmit) // d0 delayed
	decide(trace.Delay)
	emitOp(trace.KindTransmit) // d0 retransmitted, delivered
	decide(trace.DeliverNow)
	emitOp(trace.KindDrain) // a0 -> ack delivered (ack decisions default Delay when absent; supply them)
	l.Emit(trace.Event{Kind: trace.KindDecision, Dir: 2, Decision: trace.DeliverNow})
	l.Emit(trace.Event{Kind: trace.KindSubmit, Msg: ioa.Message{ID: 1, Payload: "m1"}})
	emitOp(trace.KindTransmit) // d1 delivered
	decide(trace.DeliverNow)
	emitOp(trace.KindDrain)
	l.Emit(trace.Event{Kind: trace.KindDecision, Dir: 2, Decision: trace.DeliverNow})
	// Stale replay of the stranded first copy: receiver expects bit 0 again.
	l.Emit(trace.Event{Kind: trace.KindStale, Dir: 1, Pkt: ioa.Packet{Header: "d0", Payload: "m0"}})
	if err := trace.WriteFile(path, l); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkPipeline(t *testing.T) {
	dir := t.TempDir()
	violatingFile(t, dir+"/v.nft")
	out := mustRun(t, "shrink", dir+"/v.nft", "-o", dir+"/min.nft")
	if !strings.Contains(out, "preserving DL1 violation") {
		t.Fatalf("shrink output:\n%s", out)
	}
	out = mustRun(t, "replay", dir+"/min.nft")
	if !strings.Contains(out, "DL1 violated") || !strings.Contains(out, "recorded verdict reproduced") {
		t.Fatalf("replay of shrunk trace:\n%s", out)
	}
}

// TestReplayRejudgesCorruptedStart: a corrupted-start witness replays with
// its amnesty claim re-judged, and the same witness with a forged amnesty
// or a forged diverged property fails the replay, although its verdict
// event still reproduces.
func TestReplayRejudgesCorruptedStart(t *testing.T) {
	w := stabnaiveWitness(t)
	dir := t.TempDir()
	if err := trace.WriteFile(dir+"/w.nft", w); err != nil {
		t.Fatal(err)
	}
	if out := mustRun(t, "replay", dir+"/w.nft"); !strings.Contains(out, "recorded verdict reproduced") {
		t.Fatalf("replay of the witness:\n%s", out)
	}
	for _, meta := range [][2]string{{stabilize.MetaAmnesty, "99"}, {stabilize.MetaStabilize, "diverged DL2"}} {
		l := w.Clone()
		l.SetMeta(meta[0], meta[1])
		if err := trace.WriteFile(dir+"/forged.nft", l); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err := run([]string{"replay", dir + "/forged.nft"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "amnesty") {
			t.Errorf("replay of the witness with %s %q: %v, want an amnesty re-judgement error\n%s", meta[0], meta[1], err, buf.String())
		}
	}
}

// stabnaiveWitness returns stabnaive's first corrupted-start DL1
// divergence witness, with its amnesty and claim metadata.
func stabnaiveWitness(t *testing.T) *trace.Log {
	t.Helper()
	p := protocol.NewStabNaive()
	for _, seed := range stabilize.Enumerate(p, 1) {
		rep, err := stabilize.CheckConvergence(p, seed, stabilize.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged && rep.Violation.Property == "DL1" {
			return rep.Witness
		}
	}
	t.Fatal("stabnaive has no DL1 divergence witness")
	return nil
}

// TestShrinkRefusesCorruptedStart: shrink judges clean starts only, so it
// refuses a corrupted-start certificate, naming its amnesty and claim, and
// writes nothing; a clean-start shrink writes exactly replay.Shrink's log.
func TestShrinkRefusesCorruptedStart(t *testing.T) {
	dir := t.TempDir()
	w := stabnaiveWitness(t)
	if err := trace.WriteFile(dir+"/w.nft", w); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"shrink", dir + "/w.nft", "-o", dir + "/min.nft"}, &buf)
	if err == nil {
		t.Fatalf("shrink of a corrupted-start witness succeeded:\n%s", buf.String())
	}
	for _, want := range []string{"amnesty " + w.Meta[stabilize.MetaAmnesty], w.Meta[stabilize.MetaStabilize]} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("shrink error %q does not name %q", err, want)
		}
	}
	if _, err := os.Stat(dir + "/min.nft"); !os.IsNotExist(err) {
		t.Errorf("refused shrink left an output file: %v", err)
	}

	violatingFile(t, dir+"/v.nft")
	mustRun(t, "shrink", dir+"/v.nft", "-o", dir+"/clean.nft")
	l, err := trace.ReadFile(dir + "/v.nft")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := replay.Shrink(l)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sr.Log.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(dir + "/clean.nft"); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("clean-start shrink wrote %d bytes (%v), replay.Shrink encodes %d", len(got), err, want.Len())
	}
}

// strandingFile writes a safety-clean trace of the livelock protocol: one
// submitted message, one transmit, nothing delivered. The certify-livelock
// pipeline must turn it into a pumped certificate that replays clean.
func strandingFile(t *testing.T, path string) {
	t.Helper()
	l := trace.NewLog(map[string]string{trace.MetaProtocol: "livelock", trace.MetaKind: "sim"})
	l.Emit(trace.Event{Kind: trace.KindSubmit, Msg: ioa.Message{ID: 0, Payload: "m0"}})
	l.Emit(trace.Event{Kind: trace.KindTransmit})
	l.Emit(trace.Event{Kind: trace.KindDecision, Dir: 1, Decision: trace.DeliverNow})
	if err := trace.WriteFile(path, l); err != nil {
		t.Fatal(err)
	}
}

func TestCertifyLivelockPipeline(t *testing.T) {
	dir := t.TempDir()
	strandingFile(t, dir+"/strand.nft")
	out := mustRun(t, "certify-livelock", dir+"/strand.nft", "-o", dir+"/pumped.nft")
	for _, want := range []string{"certified livelock", "protocol livelock", "pumped x3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("certify output missing %q:\n%s", want, out)
		}
	}
	out = mustRun(t, "replay", dir+"/pumped.nft")
	if !strings.Contains(out, "verdict: safe") || !strings.Contains(out, "liveness: DL3") {
		t.Fatalf("replay of pumped certificate:\n%s", out)
	}
	if !strings.Contains(out, "recorded verdict reproduced") {
		t.Fatalf("pumped certificate verdict not reproduced:\n%s", out)
	}
}

// TestCertifyLivelockRejectsBadPump: a certificate repeats its cycle at
// least once. A pump count below 1 is refused before anything is written,
// not rounded up to 1 in the certificate while the verification replay
// checks the default count.
func TestCertifyLivelockRejectsBadPump(t *testing.T) {
	dir := t.TempDir()
	strandingFile(t, dir+"/strand.nft")
	for _, pump := range []string{"0", "-2"} {
		var buf bytes.Buffer
		err := run([]string{"certify-livelock", dir + "/strand.nft", "-pump", pump, "-o", dir + "/pumped.nft"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-pump must be at least 1") {
			t.Errorf("-pump %s: err = %v, output:\n%s", pump, err, buf.String())
		}
		if _, statErr := os.Stat(dir + "/pumped.nft"); statErr == nil {
			t.Fatalf("-pump %s wrote a certificate", pump)
		}
	}
}

func TestCertifyLivelockRefusesRecoverableTrace(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, "record", "-protocol", "altbit", "-messages", "2", "-seed", "2", "-o", dir+"/run.nft")
	var buf bytes.Buffer
	err := run([]string{"certify-livelock", dir + "/run.nft"}, &buf)
	if err == nil {
		t.Fatal("certified a livelock for a recovering protocol")
	}
	if !strings.Contains(err.Error(), "recovers") && !strings.Contains(err.Error(), "no livelock") {
		t.Fatalf("unhelpful refusal: %v", err)
	}
}

func TestErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("missing command accepted")
	}
	if err := run([]string{"bogus"}, &buf); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"replay"}, &buf); err == nil {
		t.Error("replay without file accepted")
	}
	if err := run([]string{"replay", "/nonexistent.nft"}, &buf); err == nil {
		t.Error("replay of missing file accepted")
	}
	if err := run([]string{"record", "-protocol", "nosuch"}, &buf); err == nil {
		t.Error("record of unknown protocol accepted")
	}
}

func TestHelp(t *testing.T) {
	out := mustRun(t, "help")
	for _, want := range []string{"record", "replay", "shrink", "certify-livelock", "stats"} {
		if !strings.Contains(out, want) {
			t.Errorf("help missing %q", want)
		}
	}
}
