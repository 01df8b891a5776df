package trace

// Sharded trace storage for soak runs: thousands of per-session NFT logs
// packed into a fixed number of shard files. The frames are the store's
// only index: each names its session, so a scan of the shards rebuilds it.
//
// A shard file is a header followed by frames:
//
//	magic   "NFTS"           (4 bytes)
//	version 0x02             (1 byte)
//	frames  until EOF: string session | uvarint blobLen | blob
//
// The session string uses the NFT codec's uvarint-length encoding, and the
// blob is exactly Log.Encode's output, so extracting a session from a shard
// and decoding a single-session recording are the same operation (the
// shard property test pins this). Version 1 was headerless, its frames
// carried no session key and its index lived in a separate manifest file;
// the header check rejects it.
//
// Put writes each frame with one write on the unbuffered shard file, so a
// writer killed mid-soak tears at most the frame in flight, the last one in
// its shard, and a scan indexes every frame before it. Nothing is synced:
// the bound holds for process death, not for power loss.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

const (
	shardHeader  = "NFTS\x02"
	shardPattern = "shard-*.nfts"
)

// ErrShard is wrapped by errors for malformed shard files.
var ErrShard = errors.New("trace: malformed shard file")

// ManifestEntry locates and summarises one recorded session.
type ManifestEntry struct {
	// Session is the caller-chosen session key (unique per store).
	Session string
	// Shard indexes Manifest.Shards; Offset is the byte position of the
	// session's frame inside that shard file; Length is the NFT blob size
	// (excluding the frame's key and length).
	Shard  int
	Offset int64
	Length int64
	// Protocol and Verdict mirror the log's metadata and final verdict
	// event ("" means clean).
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

// ReadManifestFile is ScanShards under its old name, which reads no
// manifest file: the store has none. The benchmark module (nfperf) still
// calls it by this name.
func ReadManifestFile(dir string) (*Manifest, error) { return ScanShards(dir) }

// ScanShards rebuilds a shard directory's index by scanning every shard
// file in it, decoding each frame's log for its entry. A short final frame,
// what a killed writer leaves, ends its shard's scan; any other malformation
// fails with an error wrapping ErrShard.
func ScanShards(dir string) (*Manifest, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	for _, de := range des {
		if ok, _ := filepath.Match(shardPattern, de.Name()); !ok {
			continue
		}
		f, err := os.Open(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, err
		}
		m.Entries, err = scanShard(f, len(m.Shards), m.Entries)
		_ = f.Close() // read only
		if err != nil {
			return nil, fmt.Errorf("%s: %w", de.Name(), err)
		}
		m.Shards = append(m.Shards, de.Name())
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("trace: no shard files in %s", dir)
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Session < m.Entries[j].Session })
	for i := 1; i < len(m.Entries); i++ {
		if m.Entries[i].Session == m.Entries[i-1].Session {
			return nil, fmt.Errorf("%w: session %q recorded twice", ErrShard, m.Entries[i].Session)
		}
	}
	return m, nil
}

// scanShard appends an entry for each complete frame of the shard read
// from r, whose index in Manifest.Shards is shard. Input that ends inside
// the header or a frame ends the scan without an error.
func scanShard(r io.Reader, shard int, entries []ManifestEntry) ([]ManifestEntry, error) {
	br := bufio.NewReader(r)
	var head [len(shardHeader)]byte
	n, err := io.ReadFull(br, head[:])
	switch {
	case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
		return entries, err
	case string(head[:n]) != shardHeader[:n]:
		return entries, fmt.Errorf("%w: header %q, want %q", ErrShard, head[:n], shardHeader)
	case err != nil:
		return entries, nil // a store killed as it was created
	}
	off := int64(n)
	for {
		session, blob, size, err := readFrame(br)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return entries, nil
		}
		if err != nil {
			return entries, fmt.Errorf("%w: frame at offset %d: %w", ErrShard, off, err)
		}
		l, err := ReadLog(bytes.NewReader(blob))
		if err != nil {
			return entries, fmt.Errorf("%w: session %q at offset %d: %v", ErrShard, session, off, err)
		}
		e := newEntry(session, shard, len(blob), l)
		e.Offset = off
		entries = append(entries, e)
		off += size
	}
}

// newEntry summarises session's log l, whose blob is blobLen bytes, in an
// entry of the given shard; the caller sets its offset.
func newEntry(session string, shard, blobLen int, l *Log) ManifestEntry {
	st := Collect(l)
	return ManifestEntry{
		Session:    session,
		Shard:      shard,
		Length:     int64(blobLen),
		Protocol:   l.Meta[MetaProtocol],
		Verdict:    st.Verdict,
		Events:     st.Events,
		Ops:        st.Ops,
		Messages:   st.Messages,
		Deliveries: st.Deliveries,
	}
}

// readFrame reads one frame and reports its size in bytes. Input that ends
// before or inside the frame yields io.EOF or io.ErrUnexpectedEOF.
func readFrame(br *bufio.Reader) (session string, blob []byte, size int64, err error) {
	if session, err = readString(br); err != nil {
		return "", nil, 0, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", nil, 0, err
	}
	if blob, err = readBytes(br, n); err != nil {
		return "", nil, 0, err
	}
	size = int64(uvarintLen(uint64(len(session))) + len(session) + uvarintLen(n) + len(blob))
	return session, blob, size, nil
}

func uvarintLen(x uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], x)
}

// ShardStore writes per-session logs into a fixed set of shard files,
// concurrently. Sessions are assigned to shards by name hash; writes to
// different shards proceed in parallel, writes to the same shard serialise
// on its lock. A session is in the store, and in the index a scan
// rebuilds, once its Put returns.
type ShardStore struct {
	dir    string
	shards []*shardFile

	mu     sync.Mutex
	seen   map[string]bool
	closed bool
}

type shardFile struct {
	mu  sync.Mutex
	f   *os.File
	off int64
	// err latches the first failed write: a torn frame must stay its
	// shard's last, or a scan would read the frames after it as its blob.
	err error
}

// NewShardStore creates dir (if needed) and the given number of shard
// files inside it. It refuses a directory that already holds them, with an
// error wrapping fs.ErrExist: session keys restart in every soak run, so a
// second run into a recorded store could only collide with its recordings
// or replace them.
func NewShardStore(dir string, shards int) (*ShardStore, error) {
	if shards <= 0 {
		shards = 8
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &ShardStore{dir: dir, seen: make(map[string]bool)}
	for i := 0; i < shards; i++ {
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("shard-%03d.nfts", i)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if err == nil {
			s.shards = append(s.shards, &shardFile{f: f, off: int64(len(shardHeader))})
			_, err = f.WriteString(shardHeader)
		}
		if err != nil {
			for _, sf := range s.shards {
				_ = sf.f.Close()           // nothing recorded yet
				_ = os.Remove(sf.f.Name()) // leave dir as it was found
			}
			return nil, err
		}
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

// Put records one session's log as one frame. Session keys must be
// unique; a duplicate Put is refused (the soak contract counts recordings,
// and a silent overwrite would hide a lost one).
func (s *ShardStore) Put(session string, l *Log) (ManifestEntry, error) {
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

	frame, blobLen := encodeFrame(session, l)
	e := newEntry(session, shardIndex(session, len(s.shards)), blobLen, l)
	sf := s.shards[e.Shard]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.err != nil {
		return ManifestEntry{}, sf.err
	}
	if _, err := sf.f.Write(frame); err != nil {
		sf.err = err
		return ManifestEntry{}, err
	}
	e.Offset = sf.off
	sf.off += int64(len(frame))
	return e, nil
}

// encodeFrame returns session's frame and its blob length. The log is
// encoded once, straight into the frame: the blob goes in after room for
// the key and the widest length prefix, and the two are then copied in
// just before it.
func encodeFrame(session string, l *Log) (frame []byte, blobLen int) {
	room := len(session) + 2*binary.MaxVarintLen64
	b := l.appendTo(make([]byte, room))
	blobLen = len(b) - room
	var buf [32]byte
	head := binary.AppendUvarint(appendString(buf[:0], session), uint64(blobLen))
	i := room - len(head)
	copy(b[i:], head)
	return b[i:], blobLen
}

// Close closes every shard file.
func (s *ShardStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var errs []error
	for _, sf := range s.shards {
		sf.mu.Lock()
		errs = append(errs, sf.f.Close())
		sf.mu.Unlock()
	}
	return errors.Join(errs...)
}

// ReadShardLog extracts and decodes one session's log from a shard
// directory.
func ReadShardLog(dir string, m *Manifest, session string) (*Log, error) {
	e, ok := m.Lookup(session)
	if !ok {
		return nil, fmt.Errorf("trace: session %q not in the store", session)
	}
	if e.Shard < 0 || e.Shard >= len(m.Shards) {
		return nil, fmt.Errorf("%w: shard index %d out of range", ErrShard, e.Shard)
	}
	f, err := os.Open(filepath.Join(dir, m.Shards[e.Shard]))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readEntry(f, e)
}

// readEntry decodes the log of the frame e locates in shard r. The frame
// must carry e's session key and blob length.
func readEntry(r io.ReaderAt, e ManifestEntry) (*Log, error) {
	session, blob, _, err := readFrame(bufio.NewReader(io.NewSectionReader(r, e.Offset, math.MaxInt64)))
	if err != nil {
		return nil, fmt.Errorf("%w: frame at offset %d: %v", ErrShard, e.Offset, err)
	}
	if session != e.Session || int64(len(blob)) != e.Length {
		return nil, fmt.Errorf("%w: frame at offset %d holds %q (%d bytes), want %q (%d bytes)",
			ErrShard, e.Offset, session, len(blob), e.Session, e.Length)
	}
	return ReadLog(bytes.NewReader(blob))
}
