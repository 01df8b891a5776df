package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ioa"
)

// corruptedLog is a corrupted-start trace prefix: the KindCorrupt control
// seed and per-channel KindPoison packets precede the first schedule op,
// which is the shape internal/run records for stabilize runs.
func corruptedLog() *Log {
	l := NewLog(map[string]string{MetaProtocol: "stabnaive", MetaKind: "sim"})
	l.Emit(Event{Kind: KindCorrupt, Index: 1, Bits: 2})
	l.Emit(Event{Kind: KindPoison, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "c0", Payload: "z"}})
	l.Emit(Event{Kind: KindPoison, Dir: ioa.RtoT, Pkt: ioa.Packet{Header: "k0"}})
	l.Emit(Event{Kind: KindTransmit})
	l.Emit(Event{Kind: KindSendPkt, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "d0", Payload: "m0"}})
	l.Emit(Event{Kind: KindVerdict, Property: "DL1", Index: 4, Detail: "charges exceed amnesty"})
	return l
}

// TestCorruptRoundTrip: a log holding corrupted-start events is stamped
// format version 2, round-trips exactly, and reports its version.
func TestCorruptRoundTrip(t *testing.T) {
	l := corruptedLog()
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if v := buf.Bytes()[len(magic)]; v != versionV2 {
		t.Fatalf("corrupted-start log stamped version %d, want %d", v, versionV2)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != versionV2 {
		t.Fatalf("Reader.Version() = %d, want %d", r.Version(), versionV2)
	}
	got, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if !reflect.DeepEqual(got.Events, l.Events) {
		t.Errorf("events mismatch:\ngot  %v\nwant %v", got.Events, l.Events)
	}
}

// TestCleanLogStaysV1: logs without corrupted-start events must keep
// encoding byte-identically to the version-1 format — content-addressed
// corpus entries and committed golden witnesses depend on stable bytes.
func TestCleanLogStaysV1(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[len(magic)]; v != versionV1 {
		t.Fatalf("clean log stamped version %d, want %d", v, versionV1)
	}
}

// TestCorruptVersionSkew simulates a version-1 reader (and a corrupted
// file) meeting corrupted-start events: a v2 body re-stamped as version 1
// must be rejected at the first KindCorrupt/KindPoison event — a version-1
// producer cannot have written them — with an error naming the skew rather
// than a misparse.
func TestCorruptVersionSkew(t *testing.T) {
	var buf bytes.Buffer
	if err := corruptedLog().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	skewed := append([]byte(nil), buf.Bytes()...)
	skewed[len(magic)] = versionV1
	_, err := ReadLog(bytes.NewReader(skewed))
	if err == nil {
		t.Fatal("v2 events in a v1-stamped file decoded without error")
	}
	if !strings.Contains(err.Error(), "requires format version") {
		t.Fatalf("skew error does not name the version requirement: %v", err)
	}

	// Future versions are refused at the header, before any event parsing.
	skewed[len(magic)] = version + 1
	if _, err := ReadLog(bytes.NewReader(skewed)); err == nil ||
		!strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("future version accepted or misreported: %v", err)
	}
}
