package fuzz

import (
	"math/rand"
	"testing"

	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/trace"
)

// sameRefusal reports whether two refusals agree: both nil, or the same
// error text.
func sameRefusal(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// driveRefuses reports whether CertifyLivelock refuses l at its closing
// drive — a safety violation, a recovery, or a stranding without a repeated
// configuration — rather than after it (an empty cycle, or a pump replay
// that fails), judged from the recorded CloseDrive.
func driveRefuses(t *testing.T, l *trace.Log) bool {
	t.Helper()
	out, err := replay.CloseDrive(l, replay.DriveReliable, 0)
	if err != nil {
		t.Fatalf("CloseDrive: %v", err)
	}
	return out.Safety != nil || out.DL3 == nil || !out.CycleFound
}

// TestRefusalMatchesCertify licenses Core.refuseLivelock, the campaign's
// livelock refusal: whenever replay.CertifyLivelock refuses the logged
// execution of an input at its closing drive, the Core refuses the input
// with identical text, and a nil Core refusal leaves the answer to
// CertifyLivelock (a certificate, or a refusal after the drive). Every
// input is judged four ways, which must agree: straight on from
// Execute(in, false) on a Core that is reused across the corpus, a second
// time straight after the first drive, on the same Core after an unlogged
// and then a logged Execute (whose log must be left as recorded), and on a
// fresh Core.
func TestRefusalMatchesCertify(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 300
	}
	names := append(protocol.Names(), "livelock", "cntnobind", "gbn-s4-w2", "swindow-s4-w2")
	refused, certified, afterDrive := 0, 0, 0
	for _, name := range names {
		p, err := replay.LookupProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs := benchCorpus(n)
		// Protocols with a corruption space are also judged from corrupted
		// starts: the Core watches those runs with the same checker.
		if _, ok := p.(protocol.Corruptible); ok {
			rng := rand.New(rand.NewSource(2))
			for _, in := range inputs[:n/4] {
				c := in.Clone()
				MutateCorrupt(c, rng)
				MutateCorrupt(c, rng)
				inputs = append(inputs, c)
			}
		}
		reused := NewCore(p)
		for i, in := range inputs {
			logged := Execute(p, in, true)
			_, werr := replay.CertifyLivelock(logged.Log, replay.CertifyOptions{})

			reused.Execute(in, false)
			got := reused.refuseLivelock(in)
			again := reused.refuseLivelock(in)
			reused.Execute(in, false)
			lg := reused.Execute(in, true)
			afterLog := reused.refuseLivelock(in)
			_, lerr := replay.CertifyLivelock(lg.Log, replay.CertifyOptions{})
			fresh := NewCore(p).refuseLivelock(in)

			switch {
			case !sameRefusal(got, again):
				t.Fatalf("%s input %d: second refusal %v, first %v", name, i, again, got)
			case !sameRefusal(got, afterLog):
				t.Fatalf("%s input %d: refusal after a logged Execute %v, after an unlogged one %v", name, i, afterLog, got)
			case !sameRefusal(got, fresh):
				t.Fatalf("%s input %d: fresh-Core refusal %v, reused %v", name, i, fresh, got)
			case !sameRefusal(lerr, werr):
				t.Fatalf("%s input %d: the Core's logged execution certifies as %v, Execute's as %v", name, i, lerr, werr)
			}
			if driveRefuses(t, logged.Log) {
				if got == nil || werr == nil || got.Error() != werr.Error() {
					t.Fatalf("%s input %d: Core refusal %v, CertifyLivelock %v", name, i, got, werr)
				}
				refused++
				continue
			}
			if got != nil {
				t.Fatalf("%s input %d: Core refuses %v, but the closing drive cycles (CertifyLivelock: %v)", name, i, got, werr)
			}
			if werr != nil {
				afterDrive++
			} else {
				certified++
			}
		}
	}
	t.Logf("%d protocols: %d refused at the closing drive, %d refused after it, %d certified", len(names), refused, afterDrive, certified)
	if refused == 0 || certified == 0 {
		t.Fatalf("want both refusals and certificates, got %d refused, %d certified", refused, certified)
	}
}
