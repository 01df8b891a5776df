package verify

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// store is the visited set of the exploration: canonical configurations
// mapped to dense ids (assigned in first-visit order, so id order is BFS
// order). A configuration has two equivalent forms — its packed key
// (config.key: component ids plus counters) and its canonical key bytes
// (explorer.render) — and each implementation dedups on one of them:
//
//   - intStore (the default) dedups on the packed key: one comparable
//     40-byte struct probe instead of hashing a canonical string that runs
//     to hundreds of bytes at high occupancy. It renders the bytes only on
//     a fresh insert, to fold the space hash;
//   - diskStore (Config.SpillDir) renders and dedups on the canonical bytes
//     at every insert. They are rendered from the configuration, not from
//     the packed key's ids, so it is the reference the simdiff harness
//     holds the packed keys, and with them keyOf's touch sets, to.
//
// The two dedup disciplines agree: interning is injective (equal component
// ids ⇔ equal component strings), so a packed-key hit is a canonical-key
// hit. The converse — distinct packed keys implying distinct canonical
// keys — additionally needs the '|'-joined rendering to be unambiguous,
// which every registered key format satisfies (no component embeds the
// separator at a splitting position); a hypothetical ambiguous format would
// make the packed store strictly *finer* (never merging distinct
// configurations), erring sound. TestStoreEquivalence and the simdiff
// harness pin States/Edges/SpaceHash equality across the two stores.
//
// Both implementations maintain the canonical space hash — the XOR of fnv64a
// over all visited canonical keys, folded only on fresh inserts — an
// order-independent fingerprint of the explored configuration set that two
// runs of the same protocol at the same bounds must agree on (the POR on/off
// equivalence tests compare verdicts, not hashes: the reduction visits fewer
// states by design).
type store interface {
	// insert returns c's id and whether it was fresh. It reads c.key and,
	// where it needs the canonical bytes, the store's renderer.
	insert(c *config) (id int32, fresh bool, err error)
	len() int
	hash() uint64
	close() error
}

// renderer returns a configuration's canonical key bytes, valid until the
// next call (explorer.render).
type renderer func(*config) []byte

// intKey is the packed form of a canonical configuration key: the four
// string components (transmitter control key, receiver control key, data
// channel key, ack channel key) interned to dense ids, plus the raw
// counters. The stabilize-mode bookkeeping rides in grem/gfro/lost and is
// zero in clean mode, exactly mirroring the canonical bytes' conditional
// "|g…|f…|l…" suffix.
type intKey struct {
	tc, rc, dk, ak uint32
	sub, del       int32
	grem, gfro     int32
	lost           uint64
}

// keyHash is fnv64a over the canonical key bytes, inlined: hash/fnv's
// hasher escapes through the hash.Hash64 interface and costs an allocation
// per fresh insert, and fresh inserts happen once per visited configuration.
func keyHash(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range k {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// intStore is the default visited set: a map keyed by the packed interned
// key. The canonical bytes are rendered only on fresh inserts, to fold the
// space hash.
type intStore struct {
	ids    map[intKey]int32
	xor    uint64
	render renderer
}

func newIntStore(render renderer) *intStore {
	return &intStore{ids: make(map[intKey]int32), render: render}
}

func (s *intStore) insert(c *config) (int32, bool, error) {
	if id, ok := s.ids[c.key]; ok {
		return id, false, nil
	}
	id := int32(len(s.ids))
	s.ids[c.key] = id
	s.xor ^= keyHash(s.render(c))
	return id, true, nil
}

func (s *intStore) len() int     { return len(s.ids) }
func (s *intStore) hash() uint64 { return s.xor }
func (s *intStore) close() error { return nil }

// diskStore spills the canonical key bytes — the dominant memory cost of a
// large exploration — to an append-only temp file, keeping only a 64-bit
// hash and a file offset per visited configuration in memory (16 bytes per
// rec vs a key that can run to kilobytes at high occupancy). The split is
// keys on disk, ids in memory: dense ids never leave RAM, so the BFS
// frontier and the parent chain stay pointer-free, while the only disk reads
// are collision probes. A hash hit is verified by reading the stored key
// back before it counts as a revisit, so hash collisions cost a read, never
// a wrong answer. Records are uvarint-length-prefixed key bytes; all access
// is ReadAt/WriteAt, so no buffering layer can serve stale data.
type diskStore struct {
	f      *os.File
	off    int64
	byHash map[uint64][]diskRec
	n      int
	xor    uint64
	buf    []byte
	render renderer
}

type diskRec struct {
	off int64
	id  int32
}

func newDiskStore(dir string, render renderer) (*diskStore, error) {
	f, err := os.CreateTemp(dir, "nfverify-visited-*.keys")
	if err != nil {
		// Name the directory: the default ("" → os.TempDir) and an explicit
		// -spill dir fail the same way, and the operator needs to know which
		// path to fix.
		if dir == "" {
			dir = os.TempDir()
		}
		return nil, fmt.Errorf("verify: spill store: cannot create spill file in %q: %w", dir, err)
	}
	// The file is unlinked-on-close via close(); keep the name for Remove.
	return &diskStore{f: f, byHash: make(map[uint64][]diskRec), render: render}, nil
}

func (s *diskStore) insert(c *config) (int32, bool, error) {
	canon := s.render(c)
	h := keyHash(canon)
	for _, rec := range s.byHash[h] {
		same, err := s.keyAt(rec.off, canon)
		if err != nil {
			return 0, false, err
		}
		if same {
			return rec.id, false, nil
		}
	}
	s.buf = binary.AppendUvarint(s.buf[:0], uint64(len(canon)))
	s.buf = append(s.buf, canon...)
	if _, err := s.f.WriteAt(s.buf, s.off); err != nil {
		return 0, false, fmt.Errorf("verify: spill store: %w", err)
	}
	id := int32(s.n)
	s.byHash[h] = append(s.byHash[h], diskRec{off: s.off, id: id})
	s.off += int64(len(s.buf))
	s.n++
	s.xor ^= h
	return id, true, nil
}

// keyAt reports whether the record at off holds exactly want. Records of a
// different length are rejected from the prefix alone, without a second read.
func (s *diskStore) keyAt(off int64, want []byte) (bool, error) {
	var lbuf [binary.MaxVarintLen64]byte
	n, err := s.f.ReadAt(lbuf[:], off)
	if err != nil && err != io.EOF {
		return false, fmt.Errorf("verify: spill store: %w", err)
	}
	l, ln := binary.Uvarint(lbuf[:n])
	if ln <= 0 {
		return false, fmt.Errorf("verify: spill store: corrupt record at offset %d", off)
	}
	if l != uint64(len(want)) {
		return false, nil
	}
	kb := make([]byte, l)
	if _, err := s.f.ReadAt(kb, off+int64(ln)); err != nil {
		return false, fmt.Errorf("verify: spill store: %w", err)
	}
	return string(kb) == string(want), nil
}

func (s *diskStore) len() int     { return s.n }
func (s *diskStore) hash() uint64 { return s.xor }

// close closes and removes the spill file. Its error names the file (an
// *os.PathError): a file that could not be removed is left on disk.
func (s *diskStore) close() error {
	name := s.f.Name()
	err := s.f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	if err != nil {
		return fmt.Errorf("verify: spill store: %w", err)
	}
	return nil
}
