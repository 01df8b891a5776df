package verify

import (
	"errors"
	"fmt"
	"io/fs"
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
// sequence — with plenty of duplicates — and demands identical ids, counts,
// and canonical hashes. The packed keys are built the way the explorer
// builds them (component-injective), so the intStore's packed-key dedup
// must agree with the diskStore's byte-key dedup. The intStore renders only
// on fresh inserts, the diskStore on every insert.
func TestStoreEquivalence(t *testing.T) {
	intCanon := &canonTable{keys: map[*config]string{}}
	diskCanon := &canonTable{keys: intCanon.keys}
	ints := newIntStore(intCanon.render)
	disk, err := newDiskStore(t.TempDir(), diskCanon.render)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.close()

	var probes []*config
	for i := 0; i < 200; i++ {
		tc, rc := uint32(i%37), uint32(i%11)
		sub, del := int32(i%5), int32(i%3)
		c := &config{submitted: sub, delivered: del, key: intKey{tc: tc, rc: rc, sub: sub, del: del}}
		intCanon.keys[c] = fmt.Sprintf("tkey-%d|rkey-%d|{}|{}|%d|%d", tc, rc, sub, del)
		probes = append(probes, c)
	}
	// Re-insert everything a second time: all revisits.
	probes = append(probes, probes...)

	for i, c := range probes {
		iid, ifresh, err := ints.insert(c)
		if err != nil {
			t.Fatal(err)
		}
		did, dfresh, err := disk.insert(c)
		if err != nil {
			t.Fatal(err)
		}
		if iid != did || ifresh != dfresh {
			t.Fatalf("insert %d (%q): int (%d, %v), disk (%d, %v)", i, intCanon.keys[c], iid, ifresh, did, dfresh)
		}
	}
	if ints.len() != disk.len() {
		t.Fatalf("len: int %d, disk %d", ints.len(), disk.len())
	}
	if ints.hash() != disk.hash() {
		t.Fatalf("hash: int %016x, disk %016x", ints.hash(), disk.hash())
	}
	if intCanon.calls != ints.len() || diskCanon.calls != len(probes) {
		t.Fatalf("renders: int %d (want one per fresh insert, %d), disk %d (want one per insert, %d)",
			intCanon.calls, ints.len(), diskCanon.calls, len(probes))
	}
}

// TestDiskStoreUnwritableDir: an unwritable spill directory must fail at
// construction with an error that names the directory, not surface later as
// a mid-exploration write failure.
func TestDiskStoreUnwritableDir(t *testing.T) {
	dir := t.TempDir() + "/missing"
	_, err := newDiskStore(dir, nil)
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
	disk, err := newDiskStore(t.TempDir(), canon.render)
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
