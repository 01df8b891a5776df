package netlink

import (
	"bytes"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/seed"
	"repro/internal/trace"
	"repro/internal/wire"
)

// runSoakSessionT runs one session on a fresh Server and fails the test on
// transport errors (operational protocol errors stay in the result).
func runSoakSessionT(t *testing.T, cfg SessionConfig) *SessionResult {
	t.Helper()
	sv, err := NewServer("")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer sv.Close()
	res, err := sv.RunSession(cfg)
	if err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	return res
}

func TestSoakSessionCleanWire(t *testing.T) {
	res := runSoakSessionT(t, SessionConfig{
		Protocol: protocol.NewSeqNum(),
		Messages: 6,
		Seed:     1,
	})
	if res.Err != nil {
		t.Fatalf("session error: %v", res.Err)
	}
	if res.Stats.Delivered != 6 {
		t.Fatalf("delivered %d of 6", res.Stats.Delivered)
	}
	if res.Verdict != nil || res.DL3 != nil {
		t.Fatalf("clean wire misjudged: verdict=%v dl3=%v", res.Verdict, res.DL3)
	}
	if got := res.Log.Meta[trace.MetaKind]; got != SoakTraceKind {
		t.Fatalf("log kind %q, want %q", got, SoakTraceKind)
	}
}

func TestSoakSessionReplaysBitForBit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto protocol.Protocol
		chaos ChaosConfig
		seed  int64
	}{
		{"seqnum/clean", protocol.NewSeqNum(), ChaosConfig{}, 1},
		{"seqnum/chaos", protocol.NewSeqNum(), ChaosConfig{DropProb: 0.1, HoldProb: 0.2, DupProb: 0.1}, 2},
		{"altbit/chaos", protocol.NewAltBit(), ChaosConfig{DropProb: 0.1, HoldProb: 0.25, DupProb: 0.15}, 3},
		{"cntk4/chaos", protocol.NewCntK(4), ChaosConfig{DropProb: 0.05, HoldProb: 0.3}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runSoakSessionT(t, SessionConfig{
				Protocol: tc.proto,
				Messages: 8,
				Chaos:    tc.chaos,
				Seed:     tc.seed,
			})
			rr, err := replay.Run(res.Log)
			if err != nil {
				t.Fatalf("replay refused soak log: %v", err)
			}
			if rr.Divergence != nil {
				t.Fatalf("replay diverged: %v", rr.Divergence)
			}
			if !rr.VerdictMatches {
				t.Fatalf("verdict mismatch: recorded=%v replayed=%v dl3=%v",
					rr.RecordedVerdict, rr.Verdict, rr.DL3)
			}
		})
	}
}

// TestSoakChaosDeterminism pins the seeded-reproducibility contract the load
// generator depends on: the same seed against the same session configuration
// yields byte-identical NFT logs end-to-end, wire loss included (a lost
// datagram becomes a recorded Drop decision, so even loss cannot fork the
// log across replays — and on loopback lock-step reads it does not occur).
func TestSoakChaosDeterminism(t *testing.T) {
	cfg := SessionConfig{
		Protocol: protocol.NewAltBit(),
		Messages: 10,
		Chaos:    ChaosConfig{DropProb: 0.15, HoldProb: 0.25, DupProb: 0.1},
		Seed:     42,
	}
	encode := func(l *trace.Log) []byte {
		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	a := runSoakSessionT(t, cfg)
	b := runSoakSessionT(t, cfg)
	ab, bb := encode(a.Log), encode(b.Log)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("same seed, different logs:\nrun A (%d events):\n%s\nrun B (%d events):\n%s",
			a.Log.Len(), a.Log, b.Log.Len(), b.Log)
	}
	if a.Stats.ChaosDrops != b.Stats.ChaosDrops || a.Stats.ChaosHolds != b.Stats.ChaosHolds ||
		a.Stats.ChaosDups != b.Stats.ChaosDups || a.Stats.StaleLifted != b.Stats.StaleLifted {
		t.Fatalf("same seed, different chaos stats: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestSoakViolationShrinksToCertificate is replay-from-production in
// miniature: a live altbit session under hold+dup chaos suffers a DL1
// violation (a stale copy re-accepted after the bit wrapped), and the
// existing oracle-parameterized shrinker minimises the session's recorded
// log into a replay-confirmed certificate.
func TestSoakViolationShrinksToCertificate(t *testing.T) {
	res := runSoakSessionT(t, SessionConfig{
		Protocol: protocol.NewAltBit(),
		Messages: 12,
		Chaos:    ChaosConfig{HoldProb: 0.3, DupProb: 0.2},
		Seed:     1, // pinned: this seed yields a DL1 on a live wire
	})
	if res.Verdict == nil || res.Verdict.Property != "DL1" {
		t.Fatalf("pinned seed produced no DL1; verdict=%v err=%v", res.Verdict, res.Err)
	}
	sr, err := replay.Shrink(res.Log)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if sr.Property != "DL1" {
		t.Fatalf("shrinker preserved %q, want DL1", sr.Property)
	}
	if sr.FinalEvents >= sr.OriginalEvents {
		t.Fatalf("shrinker made no progress: %d -> %d events", sr.OriginalEvents, sr.FinalEvents)
	}
	// The certificate must be independently replayable and still violating.
	rr, err := replay.Run(sr.Log)
	if err != nil {
		t.Fatalf("replay of certificate: %v", err)
	}
	if rr.Verdict == nil || rr.Verdict.Property != "DL1" {
		t.Fatalf("certificate does not reproduce the DL1: %v", rr.Verdict)
	}
}

// TestSoakConcurrentSessionsReplay is the scale satellite: 32+ sessions run
// concurrently through one Server mux over loopback UDP (run it under
// -race), every session's log is recorded into a sharded store with zero
// losses, and every recorded trace replays bit for bit.
func TestSoakConcurrentSessionsReplay(t *testing.T) {
	sv, err := NewServer("")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer sv.Close()

	dir := t.TempDir()
	store, err := trace.NewShardStore(dir, 4)
	if err != nil {
		t.Fatalf("NewShardStore: %v", err)
	}
	const sessions = 32
	rep, err := sv.RunSoak(SoakConfig{
		Protocols: []protocol.Protocol{protocol.NewSeqNum(), protocol.NewAltBit(), protocol.NewCntK(4)},
		Sessions:  sessions,
		Messages:  4,
		Chaos:     ChaosConfig{DropProb: 0.05, HoldProb: 0.2, DupProb: 0.1},
		Seed:      99,
		Workers:   8,
		Store:     store,
	})
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
	if rep.Sessions != sessions {
		t.Fatalf("ran %d sessions, want %d", rep.Sessions, sessions)
	}
	if rep.Recorded != sessions {
		t.Fatalf("recorded %d of %d session logs", rep.Recorded, sessions)
	}
	if rep.Errors > 0 {
		for _, o := range rep.Outcomes {
			if o.Err != "" {
				t.Errorf("session %s (%s seed=%d): %s", o.Session, o.Protocol, o.Seed, o.Err)
			}
		}
		t.Fatalf("%d sessions failed operationally", rep.Errors)
	}

	m, err := trace.ScanShards(dir)
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if len(m.Entries) != sessions {
		t.Fatalf("manifest has %d entries, want %d", len(m.Entries), sessions)
	}
	for _, o := range rep.Outcomes {
		l, err := trace.ReadShardLog(dir, m, o.Session)
		if err != nil {
			t.Fatalf("read %s: %v", o.Session, err)
		}
		rr, err := replay.Run(l)
		if err != nil {
			t.Fatalf("replay %s: %v", o.Session, err)
		}
		if rr.Divergence != nil {
			t.Fatalf("session %s (%s seed=%d) diverged on replay: %v",
				o.Session, o.Protocol, o.Seed, rr.Divergence)
		}
		if !rr.VerdictMatches {
			t.Fatalf("session %s verdict mismatch: recorded=%v replayed=%v dl3=%v",
				o.Session, rr.RecordedVerdict, rr.Verdict, rr.DL3)
		}
	}
}

// TestSoakGracefulDrain pins serve-mode wind-down: once Stop fires, no new
// session starts, while every in-flight session finishes and is recorded.
func TestSoakGracefulDrain(t *testing.T) {
	sv, err := NewServer("")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer sv.Close()

	stop := make(chan struct{})
	var done atomic.Int64
	rep, err := sv.RunSoak(SoakConfig{
		Protocols: []protocol.Protocol{protocol.NewSeqNum()},
		Sessions:  1000,
		Messages:  2,
		Seed:      5,
		Workers:   4,
		onResult: func(SessionOutcome) {
			if done.Add(1) == 8 {
				close(stop)
			}
		},
		Stop: stop,
	})
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	if rep.Sessions >= 1000 {
		t.Fatalf("drain did not stop admissions: %d sessions ran", rep.Sessions)
	}
	if rep.Sessions+rep.Skipped != 1000 {
		t.Fatalf("sessions %d + skipped %d != 1000", rep.Sessions, rep.Skipped)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d in-flight sessions failed during drain", rep.Errors)
	}
}

// TestSoakWorkerReuse: one worker runs every session of a soak on the same
// runner, checker, log, read buffer and ChaosConns, reset per session. Each
// session's recorded blob must equal byte for byte the log of the same
// session run alone on fresh state through RunSession. The protocols rotate,
// so a log whose meta outlived its session would carry the wrong protocol,
// and the run must hold a violating session followed by a clean one, so a
// verdict or checker state carried over would show.
func TestSoakWorkerReuse(t *testing.T) {
	sv, err := NewServer("")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer sv.Close()
	dir := t.TempDir()
	store, err := trace.NewShardStore(dir, 4)
	if err != nil {
		t.Fatalf("NewShardStore: %v", err)
	}
	cfg := SoakConfig{
		Protocols: []protocol.Protocol{protocol.NewSeqNum(), protocol.NewAltBit(), protocol.NewCntK(4)},
		Sessions:  48,
		Messages:  8,
		Chaos:     ChaosConfig{DropProb: 0.05, HoldProb: 0.2, DupProb: 0.1},
		Seed:      3,
		Workers:   1,
		Store:     store,
	}
	rep, err := sv.RunSoak(cfg)
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
	if rep.Recorded != cfg.Sessions || rep.Errors != 0 {
		t.Fatalf("recorded %d of %d sessions, %d errors", rep.Recorded, cfg.Sessions, rep.Errors)
	}
	t.Logf("%d of %d sessions violate", rep.Violations, cfg.Sessions)
	violThenClean := false
	for i := 1; i < len(rep.Outcomes); i++ {
		if rep.Outcomes[i-1].Verdict != "" && rep.Outcomes[i].Verdict == "" {
			violThenClean = true
		}
	}
	if !violThenClean {
		t.Fatalf("no violating session is followed by a clean one (%d violations)", rep.Violations)
	}

	m, err := trace.ScanShards(dir)
	if err != nil {
		t.Fatalf("ScanShards: %v", err)
	}
	encode := func(l *trace.Log) []byte {
		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	for _, o := range rep.Outcomes {
		got, err := trace.ReadShardLog(dir, m, o.Session)
		if err != nil {
			t.Fatalf("read %s: %v", o.Session, err)
		}
		res, err := sv.RunSession(SessionConfig{
			Protocol: cfg.Protocols[o.ID%len(cfg.Protocols)],
			Messages: cfg.Messages,
			Chaos:    cfg.Chaos,
			Seed:     seed.Split(cfg.Seed, "session/"+strconv.Itoa(o.ID)),
		})
		if err != nil {
			t.Fatalf("RunSession %s: %v", o.Session, err)
		}
		if !bytes.Equal(encode(got), encode(res.Log)) {
			t.Fatalf("session %s (%s): recorded blob differs from a fresh session's log:\nrecorded:\n%s\nfresh:\n%s",
				o.Session, o.Protocol, got, res.Log)
		}
	}
}

// TestWorkerInboxDropsStragglers: a worker registers one mux inbox for all
// of its sessions, so a datagram left in the inbox when a session ends — a
// straggler the pump routed after the session's last read — must not reach
// the worker's next session, which records the log and counts the wire
// stats of a fresh session. A session that read the straggler would take it
// for its first arrival and record the real one's loss.
func TestWorkerInboxDropsStragglers(t *testing.T) {
	sv, err := NewServer("")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer sv.Close()
	cfg := SessionConfig{Protocol: protocol.NewAltBit(), Messages: 4, Seed: 5}
	w := newWorker()
	if _, err := sv.runSession(cfg, w); err != nil {
		t.Fatalf("first session: %v", err)
	}
	w.inbox <- wire.Encode(ioa.Packet{Header: "d1", Payload: "straggler"})
	got, err := sv.runSession(cfg, w)
	if err != nil {
		t.Fatalf("second session: %v", err)
	}
	want, err := sv.RunSession(cfg)
	if err != nil {
		t.Fatalf("fresh session: %v", err)
	}
	var gb, wb bytes.Buffer
	if err := got.Log.Encode(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.Log.Encode(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) || got.Stats.WireLost != want.Stats.WireLost || got.Stats.WireFiltered != want.Stats.WireFiltered {
		t.Fatalf("the worker's next session read its previous session's straggler: lost %d, filtered %d, want %d and %d\n%s\nwant\n%s",
			got.Stats.WireLost, got.Stats.WireFiltered, want.Stats.WireLost, want.Stats.WireFiltered, got.Log, want.Log)
	}
}
