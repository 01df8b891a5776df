package verify

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
)

// store is the visited set of the exploration: canonical configurations
// mapped to dense ids, assigned in first-visit order, so id order is BFS
// order. A fresh insert appends the configuration's packed key to the
// explorer's key log (explorer.keys), so the log is indexed by id and its
// length is the number of visited configurations. A configuration has two
// equivalent forms — its packed key (config.key: component ids plus
// counters) and its canonical key bytes (explorer.render) — and each
// implementation dedups on one of them:
//
//   - intStore (the default) dedups on the packed key: an open-addressed
//     table of ids whose probes compare 40-byte keys from the key log,
//     instead of hashing a canonical string that runs to hundreds of bytes
//     at high occupancy. It renders the bytes only on a fresh insert, to
//     fold the space hash;
//   - diskStore (Config.SpillDir) renders and dedups on the canonical bytes
//     at every insert, through a Go map of its own. The bytes are rendered
//     from the configuration, not from the packed key's ids, and the map
//     shares no code with intStore's table, so it is the reference the
//     simdiff harness holds the packed keys, keyOf's touch sets and the
//     table's probing to.
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
	// insert returns c's id and whether it was fresh, appending c.key to
	// the key log when it was. It reads c.key and, where it needs the
	// canonical bytes, the store's renderer.
	insert(c *config) (id int32, fresh bool, err error)
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

// hash mixes the key's words with a fixed multiply-xorshift. It takes no
// seed (hash/maphash seeds randomly), so the table's probe sequences, and
// with them the prover's cost, are the same on every run.
func (k *intKey) hash() uint64 {
	h := mix(uint64(k.tc) | uint64(k.rc)<<32)
	h = mix(h ^ (uint64(k.dk) | uint64(k.ak)<<32))
	h = mix(h ^ (uint64(uint32(k.sub)) | uint64(uint32(k.del))<<32))
	h = mix(h ^ (uint64(uint32(k.grem)) | uint64(uint32(k.gfro))<<32))
	return mix(h ^ k.lost)
}

func mix(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	return x ^ x>>32
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

// intStore is the default visited set: an open-addressed table of ids over
// the explorer's key log, with linear probing. Each slot holds the key's
// 32-bit hash tag above id+1, and 0 marks an empty slot, so a probe reads a
// key from the log only when the tags match. The table doubles at 3/4 load
// and re-places every id from the key log: growth moves slots, never ids,
// which index the log. The canonical bytes are rendered only on fresh
// inserts, to fold the space hash.
type intStore struct {
	keys   *chunked[intKey]
	slots  []uint64
	xor    uint64
	render renderer
}

// minSlots is the table's initial size: small enough that the registry's
// few-hundred-state runs stay cheap, and a power of two, as every size is.
const minSlots = 1 << 10

func newIntStore(keys *chunked[intKey], render renderer) *intStore {
	return &intStore{keys: keys, slots: make([]uint64, minSlots), render: render}
}

func (s *intStore) insert(c *config) (int32, bool, error) {
	h := c.key.hash()
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if sl := s.slots[i]; sl>>32 == h>>32 {
			if id := int32(uint32(sl) - 1); s.keys.at(id) == c.key {
				return id, false, nil
			}
		}
	}
	id := int32(s.keys.len())
	s.keys.push(c.key)
	s.slots[i] = h>>32<<32 | uint64(id+1)
	if 4*s.keys.len() > 3*len(s.slots) {
		s.grow()
	}
	s.xor ^= keyHash(s.render(c))
	return id, true, nil
}

// grow doubles the table and re-places every id, in id order, rehashing
// its key from the log.
func (s *intStore) grow() {
	s.slots = make([]uint64, 2*len(s.slots))
	mask := uint64(len(s.slots) - 1)
	for id := int32(0); int(id) < s.keys.len(); id++ {
		k := s.keys.at(id)
		h := k.hash()
		i := h & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = h>>32<<32 | uint64(id+1)
	}
}

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
//
// Its index is a Go map on purpose. The store is the reference the packed
// store is held to, and a probing bug in code the two shared would show in
// both alike.
type diskStore struct {
	f      *os.File
	off    int64
	byHash map[uint64][]diskRec
	keys   *chunked[intKey]
	xor    uint64
	// buf holds the record being written or the key being read back by a
	// probe; one buffer serves both, since a probe ends before a write.
	buf    []byte
	render renderer
}

type diskRec struct {
	off int64
	id  int32
}

func newDiskStore(dir string, keys *chunked[intKey], render renderer) (*diskStore, error) {
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
	return &diskStore{f: f, byHash: make(map[uint64][]diskRec), keys: keys, render: render}, nil
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
	id := int32(s.keys.len())
	s.keys.push(c.key)
	s.byHash[h] = append(s.byHash[h], diskRec{off: s.off, id: id})
	s.off += int64(len(s.buf))
	s.xor ^= h
	return id, true, nil
}

// keyAt reports whether the record at off holds exactly want. Records of a
// different length are rejected from the prefix alone, without a second read.
// The key is read back into s.buf: most successors are revisits, and each
// revisit probes at least one record.
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
	s.buf = slices.Grow(s.buf[:0], len(want))[:len(want)]
	if _, err := s.f.ReadAt(s.buf, off+int64(ln)); err != nil {
		return false, fmt.Errorf("verify: spill store: %w", err)
	}
	return string(s.buf) == string(want), nil
}

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
