package verify

// store is the visited set of the exploration: canonical configurations
// mapped to dense ids, assigned in first-visit order, so id order is BFS
// order. A fresh insert appends the configuration's packed key to the
// explorer's key log (explorer.keys), so the log is indexed by id and its
// length is the number of visited configurations. A configuration has two
// equivalent forms — its packed key (config.key: component ids plus
// counters) and its canonical key bytes (explorer.render). The prover's
// store, intStore, dedups on the packed key: an open-addressed table of ids
// whose probes compare 40-byte keys from the key log, instead of hashing a
// canonical string that runs to hundreds of bytes at high occupancy. It
// renders the bytes only on a fresh insert, to fold the space hash.
//
// The tests' reference store (refStore, store_test.go) dedups on the
// canonical bytes instead, rendered from each configuration at every insert
// and looked up in a Go map that shares no code with intStore's table; run
// takes the store's constructor so the tests can swap it in. The two dedup
// disciplines agree: interning is injective (equal component ids ⇔ equal
// component strings), so a packed-key hit is a canonical-key hit. The
// converse — distinct packed keys implying distinct canonical keys —
// additionally needs the '|'-joined rendering to be unambiguous, which every
// registered key format satisfies (no component embeds the separator at a
// splitting position); a hypothetical ambiguous format would make the packed
// store strictly *finer* (never merging distinct configurations), erring
// sound. TestStoreEquivalence and TestReferenceEquivalence pin the agreement.
//
// A store maintains the canonical space hash — the XOR of fnv64a over all
// visited canonical keys, folded only on fresh inserts — an
// order-independent fingerprint of the explored configuration set that two
// runs of the same protocol at the same bounds must agree on (the POR on/off
// equivalence tests compare verdicts, not hashes: the reduction visits fewer
// states by design).
type store interface {
	// insert returns c's id and whether it was fresh, appending c.key to
	// the key log when it was. It reads c.key and, where it needs the
	// canonical bytes, the store's renderer.
	insert(c *config) (id int32, fresh bool)
	hash() uint64
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

func newIntStore(keys *chunked[intKey], render renderer) store {
	return &intStore{keys: keys, slots: make([]uint64, minSlots), render: render}
}

func (s *intStore) insert(c *config) (int32, bool) {
	h := c.key.hash()
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if sl := s.slots[i]; sl>>32 == h>>32 {
			if id := int32(uint32(sl) - 1); s.keys.at(id) == c.key {
				return id, false
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
	return id, true
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
