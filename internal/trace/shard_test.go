package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ioa"
)

// soakLog builds a small synthetic session log whose shape is a pure
// function of id, so shard tests can compare against an independent encode.
func soakLog(id int) *Log {
	rng := rand.New(rand.NewSource(int64(id) + 1))
	l := NewLog(map[string]string{MetaProtocol: "seqnum", MetaKind: "soak", MetaSource: "netlink"})
	n := 2 + rng.Intn(6)
	for i := 0; i < n; i++ {
		m := ioa.Message{ID: i, Payload: "m" + strings.Repeat("x", rng.Intn(4))}
		p := ioa.Packet{Header: "h", Payload: m.Payload}
		l.Emit(Event{Kind: KindSubmit, Msg: m})
		l.Emit(Event{Kind: KindTransmit})
		l.Emit(Event{Kind: KindSendPkt, Dir: ioa.TtoR, Pkt: p})
		if rng.Float64() < 0.3 {
			l.Emit(Event{Kind: KindDecision, Dir: ioa.TtoR, Decision: Drop})
			continue
		}
		l.Emit(Event{Kind: KindDecision, Dir: ioa.TtoR, Decision: DeliverNow})
		l.Emit(Event{Kind: KindRecvPkt, Dir: ioa.TtoR, Pkt: p})
		l.Emit(Event{Kind: KindRecvMsg, Msg: m})
	}
	if id%5 == 0 {
		l.Emit(Event{Kind: KindVerdict, Property: "DL1", Index: 4, Detail: "stale delivery accepted"})
	}
	return l
}

// TestShardStoreInterleavedWritesByteIdentical is the sharded-writer
// property: many sessions written concurrently, in arbitrary interleavings,
// extract from their shards byte-identical to a standalone single-session
// recording of the same log.
func TestShardStoreInterleavedWritesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardStore(dir, 3)
	if err != nil {
		t.Fatalf("NewShardStore: %v", err)
	}
	const sessions = 40
	logs := make(map[string]*Log, sessions)
	names := make([]string, 0, sessions)
	for i := 0; i < sessions; i++ {
		name := fmt.Sprintf("s%03d", i)
		logs[name] = soakLog(i)
		names = append(names, name)
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if _, err := s.Put(name, logs[name]); err != nil {
				errs <- err
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m, err := ScanShards(dir)
	if err != nil {
		t.Fatalf("ScanShards: %v", err)
	}
	if len(m.Entries) != sessions {
		t.Fatalf("manifest has %d entries, want %d", len(m.Entries), sessions)
	}
	if v := m.Violations(); len(v) != sessions/5 || v[0].Session != "s000" {
		t.Fatalf("Violations() = %+v, want every fifth session from s000", v)
	}
	for _, name := range names {
		got, err := ReadShardLog(dir, m, name)
		if err != nil {
			t.Fatalf("ReadShardLog(%s): %v", name, err)
		}
		var want, have bytes.Buffer
		if err := logs[name].Encode(&want); err != nil {
			t.Fatal(err)
		}
		if err := got.Encode(&have); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), have.Bytes()) {
			t.Fatalf("session %s: shard extraction differs from standalone encode", name)
		}
		e, ok := m.Lookup(name)
		if !ok {
			t.Fatalf("session %s missing from manifest", name)
		}
		st := Collect(logs[name])
		if e.Events != st.Events || e.Verdict != st.Verdict || e.Deliveries != st.Deliveries {
			t.Fatalf("session %s manifest entry %+v disagrees with log stats %+v", name, e, st)
		}
	}
}

// TestShardManifestOrderIndependent pins that a manifest depends only on the
// set of recorded sessions up to byte offsets: entries come out sorted by
// session name with identical shard assignment and stats regardless of the
// write interleaving (only offsets reflect how each shard was packed).
func TestShardManifestOrderIndependent(t *testing.T) {
	build := func(order []int) *Manifest {
		t.Helper()
		dir := t.TempDir()
		s, err := NewShardStore(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if _, err := s.Put(fmt.Sprintf("s%d", i), soakLog(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := ScanShards(dir)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := build([]int{0, 1, 2, 3, 4, 5})
	b := build([]int{5, 3, 1, 4, 2, 0})
	if !reflect.DeepEqual(a.Shards, b.Shards) {
		t.Fatalf("shard lists differ: %v vs %v", a.Shards, b.Shards)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		ea.Offset, eb.Offset = 0, 0
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("entry %d differs beyond offset:\n%+v\n%+v", i, ea, eb)
		}
		if i > 0 && a.Entries[i-1].Session >= a.Entries[i].Session {
			t.Fatalf("entries not sorted: %q before %q", a.Entries[i-1].Session, a.Entries[i].Session)
		}
	}
}

// TestShardStoreDuplicatePutRefused pins the zero-lost-recordings contract:
// a duplicate session key is an error, not a silent overwrite, and a closed
// store refuses writes.
func TestShardStoreDuplicatePutRefused(t *testing.T) {
	s, err := NewShardStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("dup", soakLog(1)); err != nil {
		t.Fatalf("first Put: %v", err)
	}
	if _, err := s.Put("dup", soakLog(2)); err == nil {
		t.Fatal("duplicate Put accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Put("late", soakLog(3)); err == nil {
		t.Fatal("Put after Close accepted")
	}
}

func encoded(t testing.TB, l *Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardScanCutAtEveryByte cuts a shard at every byte offset, as a
// writer killed mid-write leaves it. The scan must index exactly the frames
// that end at or before the cut, with the entries Put returned, each
// reading back byte-identical to Log.Encode, and report no error.
func TestShardScanCutAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	logs := []*Log{soakLog(0), corruptedLog(), soakLog(1), soakLog(2)}
	var puts []ManifestEntry
	for i, l := range logs {
		e, err := s.Put(fmt.Sprintf("s%06d", i), l)
		if err != nil {
			t.Fatal(err)
		}
		puts = append(puts, e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	shard, err := os.ReadFile(filepath.Join(dir, "shard-000.nfts"))
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int, len(puts))
	for i, e := range puts {
		_, blob, size, err := readFrame(bufio.NewReader(bytes.NewReader(shard[e.Offset:])))
		if err != nil || !bytes.Equal(blob, encoded(t, logs[i])) {
			t.Fatalf("frame %d's blob is not Log.Encode's bytes (error %v)", i, err)
		}
		ends[i] = int(e.Offset + size)
	}
	if ends[len(ends)-1] != len(shard) {
		t.Fatalf("frames end at %d, shard holds %d bytes", ends[len(ends)-1], len(shard))
	}

	for cut := 0; cut <= len(shard); cut++ {
		entries, err := scanShard(bytes.NewReader(shard[:cut]), 0, nil)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		want := 0
		for want < len(ends) && ends[want] <= cut {
			want++
		}
		if len(entries) != want {
			t.Fatalf("cut at %d indexes %d frames, want %d", cut, len(entries), want)
		}
		for i, e := range entries {
			if e != puts[i] {
				t.Fatalf("cut at %d: entry %d is %+v, Put returned %+v", cut, i, e, puts[i])
			}
			l, err := readEntry(bytes.NewReader(shard[:cut]), e)
			if err != nil || !bytes.Equal(encoded(t, l), encoded(t, logs[i])) {
				t.Fatalf("cut at %d: session %s does not read back (error %v)", cut, e.Session, err)
			}
		}
	}
}

// TestShardStoreRefusesReopen: a store over a directory that holds shard
// files fails with fs.ErrExist, creates nothing, and the recorded store
// still reads back whole.
func TestShardStoreRefusesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 6
	for i := 0; i < sessions; i++ {
		if _, err := s.Put(fmt.Sprintf("s%06d", i), soakLog(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		if _, err := NewShardStore(dir, n); !errors.Is(err, fs.ErrExist) {
			t.Fatalf("NewShardStore(%d shards) over a recorded store: %v, want fs.ErrExist", n, err)
		}
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 2 || des[0].Name() != "shard-000.nfts" || des[1].Name() != "shard-001.nfts" {
		t.Fatalf("store directory holds %v, want its two shard files", des)
	}
	m, err := ScanShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != sessions {
		t.Fatalf("reopened store lists %d sessions, want %d", len(m.Entries), sessions)
	}
	for i, e := range m.Entries {
		l, err := ReadShardLog(dir, m, e.Session)
		if err != nil || !bytes.Equal(encoded(t, l), encoded(t, soakLog(i))) {
			t.Fatalf("session %s does not read back (error %v)", e.Session, err)
		}
	}

	// A refusal at a later shard removes the shards created before it.
	odd := t.TempDir()
	if err := os.WriteFile(filepath.Join(odd, "shard-001.nfts"), nil, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardStore(odd, 2); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("NewShardStore over a stray shard file: %v, want fs.ErrExist", err)
	}
	if _, err := os.Stat(filepath.Join(odd, "shard-000.nfts")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("refused store left shard-000.nfts behind (stat error %v)", err)
	}
}

// oldFormatShard is a shard in the headerless version-1 format: frames of
// uvarint blobLen | blob, with no session key.
func oldFormatShard(t testing.TB) []byte {
	var b []byte
	for i := 0; i < 3; i++ {
		blob := encoded(t, soakLog(i))
		b = append(binary.AppendUvarint(b, uint64(len(blob))), blob...)
	}
	return b
}

// TestShardScanRejectsOldFormat: a version-1 store, whose index is an NFMAN
// manifest beside the shards, is refused with ErrShard instead of misread.
func TestShardScanRejectsOldFormat(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-000.nfts"), oldFormatShard(t), 0o666); err != nil {
		t.Fatal(err)
	}
	// The NFMAN manifest naming that shard, with no entries.
	if err := os.WriteFile(filepath.Join(dir, "manifest.nfm"), []byte("NFMAN\x01\x01\x0eshard-000.nfts\x00"), 0o666); err != nil {
		t.Fatal(err)
	}
	if m, err := ScanShards(dir); !errors.Is(err, ErrShard) {
		t.Fatalf("version-1 store read as %+v (error %v), want ErrShard", m, err)
	}
}

// TestShardScanRejectsDuplicateSession: a directory whose two shard files
// hold the same frame records a session twice, which no store writes; the
// scan refuses it with ErrShard instead of indexing either copy.
func TestShardScanRejectsDuplicateSession(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("s000000", soakLog(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	shard, err := os.ReadFile(filepath.Join(dir, "shard-000.nfts"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-001.nfts"), shard, 0o666); err != nil {
		t.Fatal(err)
	}
	m, err := ScanShards(dir)
	if !errors.Is(err, ErrShard) || !strings.Contains(err.Error(), `"s000000" recorded twice`) {
		t.Fatalf("store holding s000000 in two shards read as %+v (error %v), want ErrShard", m, err)
	}
}

// TestReadEntryChecksFrame: the frame at an entry's offset must carry the
// entry's session key and blob length. An entry naming another session, the
// offset of another frame, a changed length or an offset inside a frame
// fails with ErrShard instead of returning the wrong session's log.
func TestReadEntryChecksFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	var puts []ManifestEntry
	for i := 0; i < 3; i++ {
		e, err := s.Put(fmt.Sprintf("s%06d", i), soakLog(i))
		if err != nil {
			t.Fatal(err)
		}
		puts = append(puts, e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	shard, err := os.ReadFile(filepath.Join(dir, "shard-000.nfts"))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(shard)
	if _, err := readEntry(r, puts[1]); err != nil {
		t.Fatalf("entry as Put returned it: %v", err)
	}
	cases := map[string]func(e *ManifestEntry){
		"other session": func(e *ManifestEntry) { e.Session = puts[2].Session },
		"other offset":  func(e *ManifestEntry) { e.Offset = puts[2].Offset },
		"other length":  func(e *ManifestEntry) { e.Length++ },
		"inside frame":  func(e *ManifestEntry) { e.Offset++ },
	}
	for name, edit := range cases {
		e := puts[1]
		edit(&e)
		if l, err := readEntry(r, e); !errors.Is(err, ErrShard) {
			t.Errorf("%s: read %v (error %v), want ErrShard", name, l != nil, err)
		}
	}
}
