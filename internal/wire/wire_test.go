package wire

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ioa"
)

func TestRoundTrip(t *testing.T) {
	tests := []ioa.Packet{
		{},
		{Header: "d0"},
		{Header: "d0", Payload: "hello"},
		{Header: "", Payload: "payload-only"},
		{Header: "c4:3", Payload: strings.Repeat("x", 4096)},
		{Header: "utf8-héader", Payload: "päyload"},
	}
	for _, p := range tests {
		got, err := Decode(Encode(p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if got != p {
			t.Fatalf("round trip: got %v, want %v", got, p)
		}
	}
}

func TestDecodeEmpty(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty datagram should fail")
	}
}

func TestDecodeTruncatedHeader(t *testing.T) {
	b := Encode(ioa.Packet{Header: "abcdef"})
	if _, err := Decode(b[:3]); err == nil {
		t.Fatal("truncated header should fail")
	}
}

func TestDecodeHeaderLengthLimit(t *testing.T) {
	p := ioa.Packet{Header: strings.Repeat("h", MaxHeaderLen+1)}
	if _, err := Decode(Encode(p)); err == nil {
		t.Fatal("oversized header should be rejected")
	}
}

func TestDecodeGarbageVarint(t *testing.T) {
	// 10 continuation bytes: invalid uvarint.
	b := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}
	if _, err := Decode(b); err == nil {
		t.Fatal("bad varint should fail")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(header, payload string) bool {
		if len(header) > MaxHeaderLen {
			return true
		}
		p := ioa.Packet{Header: header, Payload: payload}
		got, err := Decode(Encode(p))
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b) // must not panic
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(ioa.Packet{Header: "d0", Payload: "x"}))
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return
		}
		// Decoded packets must re-encode to an equivalent packet.
		q, err := Decode(Encode(p))
		if err != nil || q != p {
			t.Fatalf("re-encode mismatch: %v vs %v (%v)", p, q, err)
		}
	})
}

// TestAppendMatchesEncode: Append writes Encode's bytes after whatever dst
// holds, and encodes into a buffer with room without allocating.
func TestAppendMatchesEncode(t *testing.T) {
	pkts := []ioa.Packet{{}, {Header: "d0"}, {Header: "c4:3", Payload: "hello"}, {Payload: strings.Repeat("x", 300)}}
	buf := []byte("prefix")
	for _, p := range pkts {
		got := Append(buf, p)
		if want := append([]byte("prefix"), Encode(p)...); string(got) != string(want) {
			t.Fatalf("%v: Append gives %q, Encode %q after the prefix", p, got, want)
		}
	}
	buf = make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range pkts {
			buf = Append(buf[:0], p)
		}
	}); n != 0 {
		t.Errorf("Append into a buffer with room: %.0f allocations", n)
	}
}
