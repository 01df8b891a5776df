package verify

import (
	"fmt"
	"math/bits"
	"testing"
)

// refStore is the reference visited set: it renders every inserted
// configuration and dedups on the canonical bytes through a Go map. The
// bytes come from the configuration, not from the packed key's ids, and the
// map shares no code with intStore's table, so TestReferenceEquivalence
// holds the packed keys, keyOf's touch sets and the table's probing to it.
type refStore struct {
	ids    map[string]int32
	keys   *chunked[intKey]
	xor    uint64
	render renderer
}

func newRefStore(keys *chunked[intKey], render renderer) store {
	return &refStore{ids: map[string]int32{}, keys: keys, render: render}
}

func (s *refStore) insert(c *config) (int32, bool) {
	canon := s.render(c)
	if id, ok := s.ids[string(canon)]; ok {
		return id, false
	}
	id := int32(s.keys.len())
	s.keys.push(c.key)
	s.ids[string(canon)] = id
	s.xor ^= keyHash(canon)
	return id, true
}

func (s *refStore) hash() uint64 { return s.xor }

// canonTable is a test renderer: the canonical bytes of each configuration
// come from a table, and every call is counted.
type canonTable struct {
	keys  map[*config]string
	calls int
}

func (ct *canonTable) render(c *config) []byte {
	ct.calls++
	return []byte(ct.keys[c])
}

// TestStoreEquivalence drives both stores through the same configuration
// sequence and demands identical ids, key logs and canonical hashes. The
// packed keys set every intKey field and are built the way the explorer
// builds them (component-injective), so the intStore's packed-key dedup
// must agree with the refStore's byte-key dedup. The 100k distinct keys
// include, for each base key, keys that differ from it in one field only,
// and they grow the intStore's table at least three times. Revisits of
// earlier keys are interleaved with the fresh inserts, so they probe across
// every growth, and at the end every key is inserted again, in reverse
// order: each must get back the id it was first given. The intStore renders
// only on fresh inserts, the refStore on every insert.
func TestStoreEquivalence(t *testing.T) {
	intCanon := &canonTable{keys: map[*config]string{}}
	refCanon := &canonTable{keys: intCanon.keys}
	var intKeys, refKeys chunked[intKey]
	ints := newIntStore(&intKeys, intCanon.render).(*intStore)
	ref := newRefStore(&refKeys, refCanon.render)

	const distinct = 100_000
	var probes []*config
	added := map[intKey]bool{}
	add := func(k intKey) {
		if added[k] || len(probes) == distinct {
			return
		}
		added[k] = true
		c := &config{key: k}
		intCanon.keys[c] = fmt.Sprintf("t%d|r%d|d%d|a%d|%d|%d|g%d|f%d|l%x",
			k.tc, k.rc, k.dk, k.ak, k.sub, k.del, k.grem, k.gfro, k.lost)
		probes = append(probes, c)
	}
	for i := 0; len(probes) < distinct; i++ {
		base := intKey{
			tc: uint32(i % 37), rc: uint32(i % 11), dk: uint32(i % 101), ak: uint32(i % 7),
			sub: int32(i % 5), del: int32(i % 3),
			grem: int32(i % 13), gfro: int32(i % 4), lost: uint64(i%9)<<58 | uint64(i%3),
		}
		add(base)
		// One key per field that differs from base in that field only.
		v := int32(1000 + i%17)
		for f := 0; f < 9; f++ {
			k := base
			switch f {
			case 0:
				k.tc = uint32(v)
			case 1:
				k.rc = uint32(v)
			case 2:
				k.dk = uint32(v)
			case 3:
				k.ak = uint32(v)
			case 4:
				k.sub = v
			case 5:
				k.del = v
			case 6:
				k.grem = v
			case 7:
				k.gfro = v
			case 8:
				k.lost ^= 1 << 40
			}
			add(k)
		}
	}

	inserts := 0
	insert := func(c *config, wantID int32, wantFresh bool) {
		t.Helper()
		inserts++
		iid, ifresh := ints.insert(c)
		rid, rfresh := ref.insert(c)
		if iid != rid || ifresh != rfresh {
			t.Fatalf("insert %d (%q): int (%d, %v), ref (%d, %v)", inserts, intCanon.keys[c], iid, ifresh, rid, rfresh)
		}
		if iid != wantID || ifresh != wantFresh {
			t.Fatalf("insert %d (%q): (%d, %v), want (%d, %v)", inserts, intCanon.keys[c], iid, ifresh, wantID, wantFresh)
		}
	}
	for i, c := range probes {
		insert(c, int32(i), true)
		if i%3 == 0 {
			insert(probes[i/2], int32(i/2), false)
		}
	}
	if growths := bits.Len(uint(len(ints.slots)/minSlots)) - 1; growths < 3 {
		t.Fatalf("%d keys grew the table %d times, want at least 3", distinct, growths)
	}
	for i := len(probes) - 1; i >= 0; i-- {
		insert(probes[i], int32(i), false)
	}

	if intKeys.len() != distinct || refKeys.len() != distinct {
		t.Fatalf("key logs: int %d, ref %d, want %d", intKeys.len(), refKeys.len(), distinct)
	}
	for i, c := range probes {
		if ik, rk := intKeys.at(int32(i)), refKeys.at(int32(i)); ik != c.key || rk != c.key {
			t.Fatalf("key log entry %d: int %+v, ref %+v, want %+v", i, ik, rk, c.key)
		}
	}
	if ints.hash() != ref.hash() {
		t.Fatalf("hash: int %016x, ref %016x", ints.hash(), ref.hash())
	}
	if intCanon.calls != distinct || refCanon.calls != inserts {
		t.Fatalf("renders: int %d (want one per fresh insert, %d), ref %d (want one per insert, %d)",
			intCanon.calls, distinct, refCanon.calls, inserts)
	}
}
