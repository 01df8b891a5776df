package fuzz

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/trace"
)

func TestInputCodecRoundTrip(t *testing.T) {
	in := &Input{
		Ops: []Op{
			{Kind: OpSubmit},
			{Kind: OpTransmit},
			{Kind: OpStale, Dir: ioa.TtoR, Pick: 3},
			{Kind: OpDrain},
			{Kind: OpStale, Dir: ioa.RtoT, Pick: 250},
		},
		Data: []trace.Decision{trace.Delay, trace.DeliverNow, trace.Drop},
		Ack:  []trace.Decision{trace.DeliverNow},
	}
	out, err := Decode(in.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(out.Encode(), in.Encode()) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NFZ"),
		[]byte("XXXX\x01\x00\x00\x00"),
		[]byte("NFZI\x03\x00\x00\x00"), // unsupported version
		[]byte("NFZI\x02\x00\x00\x00"), // v2 without its corruption-gene section
		[]byte("NFZI\x01\x01\x09\x00\x00\x00\x00\x00"),               // unknown op kind
		[]byte("NFZI\x01\x01\x01\x00\x00\x00\x07\x00"),               // bad decision
		append((&Input{Ops: []Op{{Kind: OpSubmit}}}).Encode(), 0xff), // trailing
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d: Decode accepted garbage %q", i, b)
		}
	}
}

// FuzzInputCodecRoundTrip feeds arbitrary bytes to the NFZI decoder, the
// reader of persisted corpus entries. Decoding must never panic and fails
// only with ErrInputFormat; an accepted input must survive encode→decode
// unchanged, and its encoding must be stable.
func FuzzInputCodecRoundTrip(f *testing.F) {
	for _, in := range SeedInputs() {
		f.Add(in.Encode())
	}
	f.Add((&Input{
		Ops:     []Op{{Kind: OpSubmit}, {Kind: OpStale, Dir: ioa.RtoT, Pick: 7}},
		Data:    []trace.Decision{trace.Drop},
		Corrupt: &CorruptGene{TPick: 1, Data: []uint8{2}},
	}).Encode())
	f.Add([]byte("NFZI\x02\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, b []byte) {
		in, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrInputFormat) {
				t.Fatalf("decode error is not ErrInputFormat: %v", err)
			}
			return
		}
		enc := in.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !reflect.DeepEqual(in, again) {
			t.Fatalf("round trip changed the input:\n%+v\nvs\n%+v", in, again)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("re-encoding an accepted input is not stable")
		}
	})
}

func TestExecuteDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := SeedInputs()[2]
	for i := 0; i < 20; i++ {
		in = Mutate(in, rng)
	}
	a := Execute(protocol.NewAltBit(), in, false)
	b := Execute(protocol.NewAltBit(), in, false)
	if len(a.Points) != len(b.Points) {
		t.Fatalf("nondeterministic execution: %d vs %d points", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("nondeterministic coverage at %d", i)
		}
	}
}

func TestTrimPreservesExecution(t *testing.T) {
	in := SeedInputs()[0]
	res := Execute(protocol.NewAltBit(), in, false)
	trimmed := Trim(in, res)
	if len(trimmed.Data) > len(in.Data) || len(trimmed.Ack) > len(in.Ack) {
		t.Fatalf("trim grew the input")
	}
	res2 := Execute(protocol.NewAltBit(), trimmed, false)
	if len(res.Points) != len(res2.Points) {
		t.Fatalf("trim changed the execution: %d vs %d points", len(res.Points), len(res2.Points))
	}
	for i := range res.Points {
		if res.Points[i] != res2.Points[i] {
			t.Fatalf("trim changed coverage at %d", i)
		}
	}
}

func TestMutateNeverExceedsCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := SeedInputs()[0]
	for i := 0; i < 2000; i++ {
		in = Mutate(in, rng)
		if len(in.Ops) > MaxOps || len(in.Data) > MaxDecisions || len(in.Ack) > MaxDecisions {
			t.Fatalf("iteration %d: mutation exceeded caps: %s", i, in)
		}
		if len(in.Ops) == 0 {
			t.Fatalf("iteration %d: mutation produced empty schedule", i)
		}
		if _, err := Decode(in.Encode()); err != nil {
			t.Fatalf("iteration %d: mutated input not decodable: %v", i, err)
		}
	}
}

// runCampaign is the shared harness for discovery tests: fuzz proto with a
// deterministic serial campaign and require a shrunk certificate for prop
// that replays to the same verdict with zero divergence.
func runCampaign(t *testing.T, proto protocol.Protocol, prop string, budget int64) *Result {
	t.Helper()
	out := t.TempDir()
	res, err := Run(Config{
		Protocol:        proto,
		Workers:         1,
		Budget:          budget,
		Seed:            1,
		OutDir:          out,
		StopOnViolation: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var v *Violation
	for _, got := range res.Violations {
		if got.Property == prop {
			v = got
		}
	}
	if v == nil {
		t.Fatalf("no %s violation found for %s in %d execs (violations: %v)",
			prop, proto.Name(), res.Execs, res.Violations)
	}
	if v.Path == "" {
		t.Fatalf("violation has no certificate file")
	}
	l, err := trace.ReadFile(v.Path)
	if err != nil {
		t.Fatalf("reading certificate: %v", err)
	}
	rr, err := replay.Run(l)
	if err != nil {
		t.Fatalf("replaying certificate: %v", err)
	}
	if rr.Verdict == nil || rr.Verdict.Property != prop {
		t.Fatalf("certificate replays to verdict %v, want %s", rr.Verdict, prop)
	}
	if rr.Divergence != nil {
		t.Fatalf("certificate replay diverged: %v", rr.Divergence)
	}
	if !rr.VerdictMatches {
		t.Fatalf("replayed verdict does not match recorded verdict %v", rr.RecordedVerdict)
	}
	return res
}

// TestFindsAltbitDL1 is the headline acceptance test: the fuzzer must
// rediscover the paper's E0 attack — the alternating bit protocol is unsafe
// over non-FIFO channels — from generic seeds, within a CI-sized budget.
func TestFindsAltbitDL1(t *testing.T) {
	res := runCampaign(t, protocol.NewAltBit(), "DL1", 30000)
	t.Logf("altbit DL1 found after %d execs, corpus %d, coverage %d",
		res.Execs, res.CorpusSize, res.CoveragePoints)
}

// TestFindsCheat1DL1 rediscovers the Theorem 4.1 mechanism: the counting
// protocol with its acceptance threshold under-provisioned by one copy
// (cheat1) is unsafe.
func TestFindsCheat1DL1(t *testing.T) {
	res := runCampaign(t, protocol.NewCheat(1), "DL1", 60000)
	t.Logf("cheat1 DL1 found after %d execs, corpus %d, coverage %d",
		res.Execs, res.CorpusSize, res.CoveragePoints)
}

// TestFindsLivelockDL3 is the liveness acceptance test: fuzzing the
// intentionally broken livelock protocol from benign seeds must produce a
// certified pumping-lemma livelock — a pumped-cycle certificate that replays
// deterministically, stays safety-clean, and still fails quiescent DL3.
func TestFindsLivelockDL3(t *testing.T) {
	out := t.TempDir()
	res, err := Run(Config{
		Protocol:        protocol.NewLivelock(),
		Workers:         1,
		Budget:          2000,
		Seed:            1,
		OutDir:          out,
		StopOnViolation: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var v *Violation
	for _, got := range res.Violations {
		if got.Property == "DL3" {
			v = got
		}
	}
	if v == nil {
		t.Fatalf("no DL3 livelock certified in %d execs (violations: %v)", res.Execs, res.Violations)
	}
	if v.CycleOps == 0 {
		t.Fatal("livelock violation has no pumping cycle")
	}
	if v.Path == "" {
		t.Fatal("livelock violation has no certificate file")
	}
	l, err := trace.ReadFile(v.Path)
	if err != nil {
		t.Fatalf("reading certificate: %v", err)
	}
	if got := l.Meta[replay.MetaLivelockPump]; got != "3" {
		t.Errorf("certificate pump meta = %q, want 3", got)
	}
	rr, err := replay.Run(l)
	if err != nil {
		t.Fatalf("replaying certificate: %v", err)
	}
	if rr.Verdict != nil {
		t.Fatalf("pumped certificate violates safety: %v", rr.Verdict)
	}
	if rr.DL3 == nil {
		t.Fatal("pumped certificate delivers everything; not a livelock")
	}
	if rr.Divergence != nil {
		t.Fatalf("certificate replay diverged: %v", rr.Divergence)
	}
	if !rr.VerdictMatches {
		t.Fatalf("replayed verdict does not match recorded DL3 verdict %v", rr.RecordedVerdict)
	}
	t.Logf("livelock DL3 certified after %d execs: %d-op cycle over %d-op schedule",
		v.FoundAtExec, v.CycleOps, v.Ops)
}

// TestSeedsAreBenign pins the "from scratch" claim of the discovery tests:
// no seed input may already violate safety on any registry protocol. The
// attack composition (strand a copy, then re-deliver it late) must come out
// of the mutation search, not out of the initial corpus.
func TestSeedsAreBenign(t *testing.T) {
	reg := protocol.Registry()
	for _, name := range protocol.Names() {
		proto := reg[name]
		for i, in := range SeedInputs() {
			if res := Execute(proto, in, false); res.Verdict != nil {
				t.Errorf("seed %d violates %s on %s", i, res.Verdict.Property, name)
			}
		}
	}
}

// TestSafeProtocolFindsNothing fuzzes the sound counting protocol briefly
// and requires zero violations — the fuzzer must not produce false alarms.
func TestSafeProtocolFindsNothing(t *testing.T) {
	res, err := Run(Config{Protocol: protocol.NewCntLinear(), Workers: 1, Budget: 3000, Seed: 5})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("fuzzer reported violations on the sound protocol: %v", res.Violations)
	}
}

// TestParallelFindsViolation exercises the worker pool end to end; with the
// shallow altbit target and a generous budget the pool must converge
// regardless of merge order.
func TestParallelFindsViolation(t *testing.T) {
	out := t.TempDir()
	res, err := Run(Config{
		Protocol:        protocol.NewAltBit(),
		Workers:         4,
		Budget:          200000,
		Seed:            3,
		OutDir:          out,
		StopOnViolation: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("parallel campaign found nothing in %d execs", res.Execs)
	}
}

// TestParallelSoundCampaign runs the worker pool on the sound seqnum
// protocol. Its livelock candidates reach the merger from the workers, so
// the merger's Core re-executes each one before refusing it; every
// candidate must be refused, and nothing may fail.
func TestParallelSoundCampaign(t *testing.T) {
	res, err := Run(Config{Protocol: protocol.NewSeqNum(), Workers: 4, Budget: 3000, Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Violations) != 0 || len(res.Errors) != 0 || res.DL3Misses == 0 {
		t.Fatalf("%d execs: violations %v, errors %v, %d DL3 misses; want none, none, some",
			res.Execs, res.Violations, res.Errors, res.DL3Misses)
	}
}

// TestWriteErrorsAreReturned pins errors as values: a campaign whose
// certificate cannot be written still promotes its finding, and returns the
// failure in Result.Errors.
func TestWriteErrorsAreReturned(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Protocol:        protocol.NewAltBit(),
		Workers:         1,
		Budget:          30000,
		Seed:            1,
		OutDir:          filepath.Join(file, "certs"), // under a regular file
		StopOnViolation: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Violations) != 1 || res.Violations[0].Path != "" {
		t.Fatalf("want one unwritten finding, got %+v", res.Violations)
	}
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0].Error(), "out dir") {
		t.Fatalf("want the out-dir error, got %v", res.Errors)
	}
}

func TestCorpusSaveLoadResume(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus")
	first, err := Run(Config{Protocol: protocol.NewAltBit(), Workers: 1, Budget: 2000, Seed: 2, CorpusDir: corpus})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.CorpusSize == 0 {
		t.Fatalf("first run admitted nothing")
	}
	loaded, err := LoadCorpus(corpus)
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	if len(loaded) == 0 {
		t.Fatalf("no corpus entries persisted")
	}
	// Resume: the saved corpus must decode and re-execute; coverage after
	// replaying the saved entries alone must be substantial.
	second, err := Run(Config{Protocol: protocol.NewAltBit(), Workers: 1, Budget: int64(len(loaded)) + 3, Seed: 2, CorpusDir: corpus})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if second.CoveragePoints < first.CoveragePoints/2 {
		t.Fatalf("resume rebuilt only %d of %d coverage points", second.CoveragePoints, first.CoveragePoints)
	}
}

// TestCorpusWritesSurviveAKill pins corpus writes as all-or-nothing. A
// campaign killed mid-write leaves at most a temporary file, which must not
// break a resume, and a write that fails leaves nothing under the entry's
// name. SaveCorpus must write by rename: a dangling symlink at an entry's
// name is replaced by the entry, where a write in place would follow it.
func TestCorpusWritesSurviveAKill(t *testing.T) {
	corpus := t.TempDir()
	in := SeedInputs()[1]
	b := in.Encode()
	name := inputID(in) + ".nfzi"
	// A kill between writing the temporary and renaming it; the next write
	// must pick another name.
	if err := os.WriteFile(filepath.Join(corpus, name+".tmp0"), b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(corpus, []*Input{in}); err != nil {
		t.Fatalf("SaveCorpus: %v", err)
	}
	loaded, err := LoadCorpus(corpus)
	if err != nil || len(loaded) != 1 || !bytes.Equal(loaded[0].Encode(), b) {
		t.Fatalf("LoadCorpus: %d entries, error %v; want the saved entry alone", len(loaded), err)
	}
	if _, err := Run(Config{Protocol: protocol.NewAltBit(), Workers: 1, Budget: 50, Seed: 1, CorpusDir: corpus}); err != nil {
		t.Fatalf("resume: %v", err)
	}

	dir := t.TempDir()
	full := errors.New("no space left on device")
	err = trace.WriteAtomic(filepath.Join(dir, name), 0o644, func(w io.Writer) error {
		_, _ = w.Write(b[:len(b)/2])
		return full
	})
	if !errors.Is(err, full) {
		t.Fatalf("WriteAtomic error %v, want %v", err, full)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed write left %d files, e.g. %s", len(entries), entries[0].Name())
	}

	target := filepath.Join(dir, "elsewhere")
	if err := os.Symlink(target, filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(dir, []*Input{in}); err != nil {
		t.Fatalf("SaveCorpus over a dangling symlink: %v", err)
	}
	fi, err := os.Lstat(filepath.Join(dir, name))
	if err != nil || !fi.Mode().IsRegular() {
		t.Fatalf("the entry's name is not a regular file (error %v): SaveCorpus wrote in place", err)
	}
	if _, err := os.Lstat(target); err == nil {
		t.Fatal("SaveCorpus wrote through the symlink")
	}
	if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("entry holds %d bytes (error %v), want %d", len(got), err, len(b))
	}
	if err := os.WriteFile(target, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if want, _ := os.Stat(target); fi.Mode() != want.Mode() {
		t.Fatalf("SaveCorpus made mode %v, os.WriteFile %v", fi.Mode(), want.Mode())
	}
}
