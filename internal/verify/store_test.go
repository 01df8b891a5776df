package verify

import (
	"errors"
	"fmt"
	"io/fs"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/protocol"
)

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
// must agree with the diskStore's byte-key dedup. The 100k distinct keys
// include, for each base key, keys that differ from it in one field only,
// and they grow the intStore's table at least three times. Revisits of
// earlier keys are interleaved with the fresh inserts, so they probe across
// every growth, and at the end every key is inserted again, in reverse
// order: each must get back the id it was first given. The intStore renders
// only on fresh inserts, the diskStore on every insert.
func TestStoreEquivalence(t *testing.T) {
	intCanon := &canonTable{keys: map[*config]string{}}
	diskCanon := &canonTable{keys: intCanon.keys}
	var intKeys, diskKeys chunked[intKey]
	ints := newIntStore(&intKeys, intCanon.render)
	disk, err := newDiskStore(t.TempDir(), &diskKeys, diskCanon.render)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.close()

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
		iid, ifresh, err := ints.insert(c)
		if err != nil {
			t.Fatal(err)
		}
		did, dfresh, err := disk.insert(c)
		if err != nil {
			t.Fatal(err)
		}
		if iid != did || ifresh != dfresh {
			t.Fatalf("insert %d (%q): int (%d, %v), disk (%d, %v)", inserts, intCanon.keys[c], iid, ifresh, did, dfresh)
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

	if intKeys.len() != distinct || diskKeys.len() != distinct {
		t.Fatalf("key logs: int %d, disk %d, want %d", intKeys.len(), diskKeys.len(), distinct)
	}
	for i, c := range probes {
		if ik, dk := intKeys.at(int32(i)), diskKeys.at(int32(i)); ik != c.key || dk != c.key {
			t.Fatalf("key log entry %d: int %+v, disk %+v, want %+v", i, ik, dk, c.key)
		}
	}
	if ints.hash() != disk.hash() {
		t.Fatalf("hash: int %016x, disk %016x", ints.hash(), disk.hash())
	}
	if intCanon.calls != distinct || diskCanon.calls != inserts {
		t.Fatalf("renders: int %d (want one per fresh insert, %d), disk %d (want one per insert, %d)",
			intCanon.calls, distinct, diskCanon.calls, inserts)
	}
}

// TestDiskStoreUnwritableDir: an unwritable spill directory must fail at
// construction with an error that names the directory, not surface later as
// a mid-exploration write failure.
func TestDiskStoreUnwritableDir(t *testing.T) {
	dir := t.TempDir() + "/missing"
	_, err := newDiskStore(dir, new(chunked[intKey]), nil)
	if err == nil {
		t.Fatal("newDiskStore in a nonexistent directory succeeded")
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error does not name the spill directory %q: %v", dir, err)
	}
}

// TestDiskStoreLargeKeys checks the spill records across the varint length
// boundary (keys longer than 127 bytes need a two-byte length prefix).
func TestDiskStoreLargeKeys(t *testing.T) {
	canon := &canonTable{keys: map[*config]string{}}
	disk, err := newDiskStore(t.TempDir(), new(chunked[intKey]), canon.render)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.close()

	long := make([]byte, 0, 4096)
	for i := 0; i < 512; i++ {
		long = append(long, byte('a'+i%26))
	}
	keys := []string{"short", string(long), string(long) + "x", "short"}
	wantFresh := []bool{true, true, true, false}
	wantID := []int32{0, 1, 2, 0}
	for i, k := range keys {
		c := &config{}
		canon.keys[c] = k
		id, fresh, err := disk.insert(c)
		if err != nil {
			t.Fatal(err)
		}
		if id != wantID[i] || fresh != wantFresh[i] {
			t.Fatalf("insert %d: got (%d, %v), want (%d, %v)", i, id, fresh, wantID[i], wantFresh[i])
		}
	}
}

// removingProto wraps a protocol so that every transmitter's SendMsg calls
// rm first.
type removingProto struct {
	protocol.Protocol
	rm func()
}

func (p removingProto) New(data, ack channel.Genie) (protocol.Transmitter, protocol.Receiver) {
	t, r := p.Protocol.New(data, ack)
	return removingT{t, p.rm}, r
}

type removingT struct {
	protocol.Transmitter
	rm func()
}

func (t removingT) SendMsg(payload string) {
	t.rm()
	t.Transmitter.SendMsg(payload)
}

func (t removingT) Clone() protocol.Transmitter { return removingT{t.Transmitter.Clone(), t.rm} }

// TestRunReportsSpillCloseError: a spill file that cannot be removed when
// the run ends stays on disk, so Run must fail with an error naming it. The
// protocol removes the file behind the store's back at the first submitted
// message; removing it again at close then fails.
func TestRunReportsSpillCloseError(t *testing.T) {
	dir := t.TempDir()
	removed := false
	rm := func() {
		if removed {
			return
		}
		removed = true
		files, err := filepath.Glob(filepath.Join(dir, "nfverify-visited-*"))
		if err != nil || len(files) != 1 {
			t.Fatalf("spill files in %s: %v (%v)", dir, files, err)
		}
		if err := os.Remove(files[0]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Run(removingProto{protocol.NewSeqNum(), rm}, Config{SpillDir: dir})
	if !removed {
		t.Fatal("the run never submitted a message")
	}
	if err == nil {
		t.Fatalf("Run returned no error (verdict %s) though its spill file could not be removed", rep.Verdict)
	}
	if rep != nil {
		t.Fatalf("Run returned a report with its error: %v", err)
	}
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), filepath.Join(dir, "nfverify-visited-")) {
		t.Fatalf("error does not name the spill file: %v", err)
	}
}
