package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ioa"
)

func sampleLog() *Log {
	l := NewLog(map[string]string{MetaProtocol: "altbit", MetaKind: "sim"})
	l.Emit(Event{Kind: KindSubmit, Msg: ioa.Message{ID: 0, Payload: "m0"}})
	l.Emit(Event{Kind: KindTransmit})
	l.Emit(Event{Kind: KindSendPkt, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "d0", Payload: "m0"}})
	l.Emit(Event{Kind: KindDecision, Dir: ioa.TtoR, Decision: Delay})
	l.Emit(Event{Kind: KindDrain})
	l.Emit(Event{Kind: KindTransmit})
	l.Emit(Event{Kind: KindSendPkt, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "d0", Payload: "m0"}})
	l.Emit(Event{Kind: KindDecision, Dir: ioa.TtoR, Decision: DeliverNow})
	l.Emit(Event{Kind: KindRecvPkt, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "d0", Payload: "m0"}})
	l.Emit(Event{Kind: KindRecvMsg, Msg: ioa.Message{ID: 0, Payload: "m0"}})
	l.Emit(Event{Kind: KindDrain})
	l.Emit(Event{Kind: KindSendPkt, Dir: ioa.RtoT, Pkt: ioa.Packet{Header: "a0"}})
	l.Emit(Event{Kind: KindDecision, Dir: ioa.RtoT, Decision: DeliverNow})
	l.Emit(Event{Kind: KindRecvPkt, Dir: ioa.RtoT, Pkt: ioa.Packet{Header: "a0"}})
	l.Emit(Event{Kind: KindStale, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "d0", Payload: "m0"}})
	l.Emit(Event{Kind: KindRNG, Bits: 0xdeadbeef})
	l.Emit(Event{Kind: KindVerdict, Property: "DL1", Index: 9, Detail: "duplicate delivery"})
	return l
}

func TestCodecRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if !reflect.DeepEqual(got.Meta, l.Meta) {
		t.Errorf("meta mismatch: got %v want %v", got.Meta, l.Meta)
	}
	if !reflect.DeepEqual(got.Events, l.Events) {
		t.Errorf("events mismatch:\ngot  %v\nwant %v", got.Events, l.Events)
	}
}

func TestFileRoundTrip(t *testing.T) {
	l := sampleLog()
	path := t.TempDir() + "/t.nft"
	if err := WriteFile(path, l); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Errorf("file round trip mismatch")
	}
}

// TestWriteFileIsAllOrNothing pins certificate writes as atomic. A write
// that fails leaves neither a file under the final name nor a temporary. A
// write over a regular file replaces it by rename, so a hard link to the old
// file keeps the old log, and the new file gets the mode os.Create gives. A
// symlink at the path is written through, not replaced.
func TestWriteFileIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.nft")
	full := errors.New("no space left on device")
	err := WriteAtomic(path, 0o666, func(w io.Writer) error {
		_, _ = io.WriteString(w, magic)
		return full
	})
	if !errors.Is(err, full) {
		t.Fatalf("WriteAtomic error %v, want %v", err, full)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed write left %d files, e.g. %s", len(entries), entries[0].Name())
	}

	old := NewLog(map[string]string{MetaProtocol: "altbit"})
	old.Emit(Event{Kind: KindTransmit})
	if err := WriteFile(path, old); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	link := filepath.Join(dir, "link.nft")
	if err := os.Link(path, link); err != nil {
		t.Fatal(err)
	}
	l := sampleLog()
	if err := WriteFile(path, l); err != nil {
		t.Fatalf("WriteFile over an existing file: %v", err)
	}
	if got, err := ReadFile(path); err != nil || !reflect.DeepEqual(got, l) {
		t.Fatalf("ReadFile after an overwrite: %v", err)
	}
	if got, err := ReadFile(link); err != nil || !reflect.DeepEqual(got, old) {
		t.Fatalf("the hard link no longer holds the old log (error %v): the file was written in place", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("overwrite left %d files, want the log and its old link", len(entries))
	}
	created := filepath.Join(dir, "created")
	f, err := os.Create(created)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	want, _ := os.Stat(created)
	if got, _ := os.Stat(path); got.Mode() != want.Mode() {
		t.Fatalf("WriteFile made mode %v, os.Create %v", got.Mode(), want.Mode())
	}

	sym := filepath.Join(dir, "sym.nft")
	if err := os.Symlink(link, sym); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(sym, l); err != nil {
		t.Fatalf("WriteFile through a symlink: %v", err)
	}
	if fi, err := os.Lstat(sym); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("the symlink was replaced (error %v)", err)
	}
	if got, err := ReadFile(link); err != nil || !reflect.DeepEqual(got, l) {
		t.Fatalf("the symlink's target does not hold the log (error %v)", err)
	}
}

func TestStreamingReader(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta()[MetaProtocol] != "altbit" {
		t.Errorf("meta protocol = %q", r.Meta()[MetaProtocol])
	}
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next after %d events: %v", n, err)
		}
		n++
	}
	if n != l.Len() {
		t.Errorf("streamed %d events, want %d", n, l.Len())
	}
}

func TestRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   []byte("NOPE!\x01\x00"),
		"bad version": []byte(magic + "\x7f\x00"),
		"bad kind":    append(headerBytes(t), 0xee),
	}
	for name, b := range cases {
		if _, err := ReadLog(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
	// Truncation at an event boundary yields a (valid) shorter log, but a
	// cut strictly inside an event must error, never silently succeed.
	l := sampleLog()
	var hdr bytes.Buffer
	if err := NewLog(l.Meta).Encode(&hdr); err != nil {
		t.Fatal(err)
	}
	boundaries := map[int]bool{}
	off := hdr.Len()
	boundaries[off] = true
	for _, e := range l.Events {
		off += len(appendEvent(nil, e))
		boundaries[off] = true
	}
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := len(full) - 1; cut > hdr.Len(); cut-- {
		got, err := ReadLog(bytes.NewReader(full[:cut]))
		if boundaries[cut] {
			if err != nil {
				t.Fatalf("boundary truncation at %d rejected: %v", cut, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("mid-event truncation at %d of %d accepted (%d events)", cut, len(full), got.Len())
		}
	}
}

func headerBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewLog(nil).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestVerdictAndProjections(t *testing.T) {
	l := sampleLog()
	v, ok := l.Verdict()
	if !ok || v == nil || v.Property != "DL1" || v.Index != 9 {
		t.Fatalf("Verdict = %v, %v", v, ok)
	}
	ds := l.Decisions(ioa.TtoR)
	if want := []Decision{Delay, DeliverNow}; !reflect.DeepEqual(ds, want) {
		t.Errorf("Decisions(t→r) = %v want %v", ds, want)
	}
}

func TestStats(t *testing.T) {
	s := Collect(sampleLog())
	if s.Events != 17 || s.Ops != 6 {
		t.Errorf("Events=%d Ops=%d", s.Events, s.Ops)
	}
	if s.DataSends != 2 || s.AckSends != 1 || s.DataRecvs != 1 || s.AckRecvs != 1 {
		t.Errorf("traffic split: %+v", s)
	}
	if s.Headers != 2 || s.Messages != 1 || s.Deliveries != 1 || s.Stales != 1 {
		t.Errorf("alphabet/messages: %+v", s)
	}
	if !s.HasVerdict || s.Verdict != "DL1" {
		t.Errorf("verdict: %+v", s)
	}
	if s.Decisions[DeliverNow] != 2 || s.Decisions[Delay] != 1 {
		t.Errorf("decisions: %v", s.Decisions)
	}
}

func TestCloneIndependence(t *testing.T) {
	l := sampleLog()
	c := l.Clone()
	c.Emit(Event{Kind: KindTransmit})
	c.SetMeta("extra", "1")
	if l.Len() == c.Len() {
		t.Error("clone shares event slice")
	}
	if _, ok := l.Meta["extra"]; ok {
		t.Error("clone shares meta map")
	}
}

func TestLogString(t *testing.T) {
	out := sampleLog().String()
	for _, want := range []string{"submit", "decision", "verdict(DL1@9)", "# protocol = altbit"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}
