package trace

// Sharded trace storage for soak runs: thousands of per-session NFT logs
// packed into a fixed number of shard files, indexed by a manifest.
//
// A shard file is a concatenation of length-framed NFT blobs:
//
//	uvarint blobLen | blobLen bytes of Log.Encode output | ...
//
// Each blob is byte-identical to what Log.Encode would have written to a
// standalone file — the framing is outside the NFT stream — so extracting a
// session from a shard and decoding a single-session recording are the same
// operation (the shard property test pins this).
//
// The NFMAN manifest format:
//
//	magic   "NFMAN"          (5 bytes)
//	version 0x01             (1 byte)
//	shards  uvarint count, then count × string (shard file name)
//	entries uvarint count, then count × entry:
//	        string session | uvarint shard | uvarint offset |
//	        uvarint length | string protocol | string verdict |
//	        uvarint events | uvarint ops | uvarint messages |
//	        uvarint deliveries
//
// Strings reuse the NFT codec's uvarint-length encoding. Entries are sorted
// by session name, so the manifest's entry order depends only on the set of
// recorded sessions; only the byte offsets reflect the interleaving that
// packed each shard.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

const (
	manifestMagic   = "NFMAN"
	manifestVersion = 1
	// ManifestFile is the manifest's file name inside a shard directory.
	ManifestFile = "manifest.nfm"
)

// ErrManifest is wrapped by manifest decode errors.
var ErrManifest = errors.New("trace: malformed manifest")

// ManifestEntry locates and summarises one recorded session.
type ManifestEntry struct {
	// Session is the caller-chosen session key (unique per store).
	Session string
	// Shard indexes Manifest.Shards; Offset is the byte position of the
	// session's length frame inside that shard file; Length is the NFT blob
	// size (excluding the frame).
	Shard  int
	Offset int64
	Length int64
	// Protocol and Verdict mirror the log's metadata and final verdict
	// event ("" means clean), so violating sessions are findable without
	// opening any shard.
	Protocol string
	Verdict  string
	// Events, Ops, Messages and Deliveries are the log's Stats headline.
	Events, Ops, Messages, Deliveries int
}

// Manifest indexes a shard directory.
type Manifest struct {
	// Shards are the shard file names, relative to the directory.
	Shards []string
	// Entries are sorted by Session.
	Entries []ManifestEntry
}

// Lookup finds a session's entry.
func (m *Manifest) Lookup(session string) (ManifestEntry, bool) {
	i := sort.Search(len(m.Entries), func(i int) bool { return m.Entries[i].Session >= session })
	if i < len(m.Entries) && m.Entries[i].Session == session {
		return m.Entries[i], true
	}
	return ManifestEntry{}, false
}

// Violations returns the entries whose recorded verdict is a violation.
func (m *Manifest) Violations() []ManifestEntry {
	var out []ManifestEntry
	for _, e := range m.Entries {
		if e.Verdict != "" {
			out = append(out, e)
		}
	}
	return out
}

// EncodeManifest writes m in the NFMAN format.
func EncodeManifest(w io.Writer, m *Manifest) error {
	var buf []byte
	buf = append(buf, manifestMagic...)
	buf = append(buf, manifestVersion)
	buf = binary.AppendUvarint(buf, uint64(len(m.Shards)))
	for _, s := range m.Shards {
		buf = appendString(buf, s)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		buf = appendString(buf, e.Session)
		buf = binary.AppendUvarint(buf, uint64(e.Shard))
		buf = binary.AppendUvarint(buf, uint64(e.Offset))
		buf = binary.AppendUvarint(buf, uint64(e.Length))
		buf = appendString(buf, e.Protocol)
		buf = appendString(buf, e.Verdict)
		buf = binary.AppendUvarint(buf, uint64(e.Events))
		buf = binary.AppendUvarint(buf, uint64(e.Ops))
		buf = binary.AppendUvarint(buf, uint64(e.Messages))
		buf = binary.AppendUvarint(buf, uint64(e.Deliveries))
	}
	_, err := w.Write(buf)
	return err
}

// DecodeManifest reads an NFMAN manifest.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(manifestMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrManifest, err)
	}
	if string(head[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrManifest, head[:len(manifestMagic)])
	}
	if v := head[len(manifestMagic)]; v != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (have %d)", ErrManifest, v, manifestVersion)
	}
	uvar := func(field string) (uint64, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("%w: %s: %v", ErrManifest, field, err)
		}
		return n, nil
	}
	m := &Manifest{}
	nShards, err := uvar("shard count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nShards; i++ {
		s, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("%w: shard name: %v", ErrManifest, err)
		}
		m.Shards = append(m.Shards, s)
	}
	nEntries, err := uvar("entry count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nEntries; i++ {
		var e ManifestEntry
		if e.Session, err = readString(br); err != nil {
			return nil, fmt.Errorf("%w: session: %v", ErrManifest, err)
		}
		sh, err := uvar("shard index")
		if err != nil {
			return nil, err
		}
		if sh >= nShards {
			return nil, fmt.Errorf("%w: session %q: shard index %d out of range (%d shards)", ErrManifest, e.Session, sh, nShards)
		}
		e.Shard = int(sh)
		off, err := uvar("offset")
		if err != nil {
			return nil, err
		}
		e.Offset = int64(off)
		ln, err := uvar("length")
		if err != nil {
			return nil, err
		}
		e.Length = int64(ln)
		if e.Protocol, err = readString(br); err != nil {
			return nil, fmt.Errorf("%w: protocol: %v", ErrManifest, err)
		}
		if e.Verdict, err = readString(br); err != nil {
			return nil, fmt.Errorf("%w: verdict: %v", ErrManifest, err)
		}
		for _, f := range []struct {
			name string
			dst  *int
		}{
			{"events", &e.Events}, {"ops", &e.Ops},
			{"messages", &e.Messages}, {"deliveries", &e.Deliveries},
		} {
			v, err := uvar(f.name)
			if err != nil {
				return nil, err
			}
			*f.dst = int(v)
		}
		m.Entries = append(m.Entries, e)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes", ErrManifest)
	}
	return m, nil
}

// WriteManifestFile writes the manifest into its shard directory.
func WriteManifestFile(dir string, m *Manifest) error {
	f, err := os.Create(filepath.Join(dir, ManifestFile))
	if err != nil {
		return err
	}
	if err := EncodeManifest(f, m); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// ReadManifestFile reads a shard directory's manifest.
func ReadManifestFile(dir string) (*Manifest, error) {
	f, err := os.Open(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeManifest(f)
}

// ShardStore writes per-session logs into a fixed set of shard files,
// concurrently. Sessions are assigned to shards by name hash; writes to
// different shards proceed in parallel, writes to the same shard serialise
// on its lock. Close flushes every shard and writes the manifest.
type ShardStore struct {
	dir    string
	shards []*shardFile

	mu      sync.Mutex
	seen    map[string]bool
	entries []ManifestEntry
	closed  bool
}

type shardFile struct {
	mu   sync.Mutex
	name string
	f    *os.File
	w    *bufio.Writer
	off  int64
}

// NewShardStore creates dir (if needed) and opens the given number of shard
// files inside it.
func NewShardStore(dir string, shards int) (*ShardStore, error) {
	if shards <= 0 {
		shards = 8
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &ShardStore{dir: dir, seen: make(map[string]bool)}
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard-%03d.nfts", i)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			for _, sf := range s.shards {
				_ = sf.f.Close()
			}
			return nil, err
		}
		s.shards = append(s.shards, &shardFile{name: name, f: f, w: bufio.NewWriter(f)})
	}
	return s, nil
}

// Dir reports the store's directory.
func (s *ShardStore) Dir() string { return s.dir }

// shardIndex assigns a session to a shard by FNV-32a hash.
func shardIndex(session string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(session))
	return int(h.Sum32() % uint32(n))
}

// Put records one session's log. Session keys must be unique; a duplicate
// Put is refused (the soak contract counts recordings, and a silent
// overwrite would hide a lost one).
func (s *ShardStore) Put(session string, l *Log) (ManifestEntry, error) {
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		return ManifestEntry{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ManifestEntry{}, errors.New("trace: shard store closed")
	}
	if s.seen[session] {
		s.mu.Unlock()
		return ManifestEntry{}, fmt.Errorf("trace: duplicate session %q", session)
	}
	s.seen[session] = true
	s.mu.Unlock()

	st := Collect(l)
	e := ManifestEntry{
		Session:    session,
		Length:     int64(buf.Len()),
		Protocol:   l.Meta[MetaProtocol],
		Verdict:    st.Verdict,
		Events:     st.Events,
		Ops:        st.Ops,
		Messages:   st.Messages,
		Deliveries: st.Deliveries,
	}
	e.Shard = shardIndex(session, len(s.shards))
	sf := s.shards[e.Shard]

	var frame [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(frame[:], uint64(buf.Len()))
	sf.mu.Lock()
	e.Offset = sf.off
	if _, err := sf.w.Write(frame[:n]); err != nil {
		sf.mu.Unlock()
		return ManifestEntry{}, err
	}
	if _, err := sf.w.Write(buf.Bytes()); err != nil {
		sf.mu.Unlock()
		return ManifestEntry{}, err
	}
	sf.off += int64(n) + int64(buf.Len())
	sf.mu.Unlock()

	s.mu.Lock()
	s.entries = append(s.entries, e)
	s.mu.Unlock()
	return e, nil
}

// Len reports the number of recorded sessions.
func (s *ShardStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Manifest snapshots the store's index, entries sorted by session.
func (s *ShardStore) Manifest() *Manifest {
	s.mu.Lock()
	entries := append([]ManifestEntry(nil), s.entries...)
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Session < entries[j].Session })
	m := &Manifest{Entries: entries}
	for _, sf := range s.shards {
		m.Shards = append(m.Shards, sf.name)
	}
	return m
}

// Close flushes and closes every shard file and writes the manifest.
func (s *ShardStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var firstErr error
	for _, sf := range s.shards {
		sf.mu.Lock()
		if err := sf.w.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := sf.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		sf.mu.Unlock()
	}
	if err := WriteManifestFile(s.dir, s.Manifest()); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// ReadShardLog extracts and decodes one session's log from a shard
// directory.
func ReadShardLog(dir string, m *Manifest, session string) (*Log, error) {
	e, ok := m.Lookup(session)
	if !ok {
		return nil, fmt.Errorf("trace: session %q not in manifest", session)
	}
	if e.Shard < 0 || e.Shard >= len(m.Shards) {
		return nil, fmt.Errorf("%w: shard index %d out of range", ErrManifest, e.Shard)
	}
	f, err := os.Open(filepath.Join(dir, m.Shards[e.Shard]))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(e.Offset, io.SeekStart); err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	blobLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: frame at offset %d: %v", ErrManifest, e.Offset, err)
	}
	if int64(blobLen) != e.Length {
		return nil, fmt.Errorf("%w: frame length %d != manifest length %d", ErrManifest, blobLen, e.Length)
	}
	return ReadLog(io.LimitReader(br, e.Length))
}
