package verify

import (
	"fmt"
	"strings"
	"testing"
)

// TestStoreEquivalence drives both stores through the same configuration
// sequence — with plenty of duplicates — and demands identical ids, counts,
// and canonical hashes. The packed keys are built the way the explorer
// builds them (component-injective), so the intStore's packed-key dedup
// must agree with the diskStore's byte-key dedup.
func TestStoreEquivalence(t *testing.T) {
	ints := newIntStore()
	disk, err := newDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.close()

	type probe struct {
		k     intKey
		canon string
	}
	var probes []probe
	for i := 0; i < 200; i++ {
		tc, rc := uint32(i%37), uint32(i%11)
		sub, del := int32(i%5), int32(i%3)
		probes = append(probes, probe{
			k:     intKey{tc: tc, rc: rc, sub: sub, del: del},
			canon: fmt.Sprintf("tkey-%d|rkey-%d|{}|{}|%d|%d", tc, rc, sub, del),
		})
	}
	// Re-insert everything a second time: all revisits.
	probes = append(probes, probes...)

	for i, p := range probes {
		iid, ifresh, err := ints.insert(p.k, []byte(p.canon))
		if err != nil {
			t.Fatal(err)
		}
		did, dfresh, err := disk.insert(p.k, []byte(p.canon))
		if err != nil {
			t.Fatal(err)
		}
		if iid != did || ifresh != dfresh {
			t.Fatalf("insert %d (%q): int (%d, %v), disk (%d, %v)", i, p.canon, iid, ifresh, did, dfresh)
		}
	}
	if ints.len() != disk.len() {
		t.Fatalf("len: int %d, disk %d", ints.len(), disk.len())
	}
	if ints.hash() != disk.hash() {
		t.Fatalf("hash: int %016x, disk %016x", ints.hash(), disk.hash())
	}
}

// TestDiskStoreUnwritableDir: an unwritable spill directory must fail at
// construction with an error that names the directory, not surface later as
// a mid-exploration write failure.
func TestDiskStoreUnwritableDir(t *testing.T) {
	dir := t.TempDir() + "/missing"
	_, err := newDiskStore(dir)
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
	disk, err := newDiskStore(t.TempDir())
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
		id, fresh, err := disk.insert(intKey{}, []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if id != wantID[i] || fresh != wantFresh[i] {
			t.Fatalf("insert %d: got (%d, %v), want (%d, %v)", i, id, fresh, wantID[i], wantFresh[i])
		}
	}
}
