package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/ioa"
)

// FuzzTraceCodecRoundTrip feeds arbitrary bytes to the NFT decoder. Decoding
// must never panic; when it succeeds, the decoded log must survive an
// encode→decode round trip unchanged — the codec is the persistence layer
// for violation certificates, so any log it accepts must be one it can
// faithfully reproduce.
func FuzzTraceCodecRoundTrip(f *testing.F) {
	seed := func(l *Log) {
		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(NewLog(nil))
	seed(&Log{
		Meta: map[string]string{MetaProtocol: "altbit", MetaKind: "sim"},
		Events: []Event{
			{Kind: KindSubmit, Msg: ioa.Message{ID: 0, Payload: "m0"}},
			{Kind: KindTransmit},
			{Kind: KindDecision, Dir: ioa.TtoR, Decision: Delay},
			{Kind: KindSendPkt, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "d0", Payload: "m0"}},
			{Kind: KindDrain},
			{Kind: KindStale, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "d0", Payload: "m0"}},
			{Kind: KindRNG, Bits: 0xdeadbeef},
			{Kind: KindVerdict, Property: "DL1", Index: 3, Detail: "dup"},
		},
	})
	f.Add([]byte{})
	f.Add([]byte("NFTRC\x01garbage"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := ReadLog(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("decode error is not ErrFormat: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			t.Fatalf("re-encoding accepted log: %v", err)
		}
		l2, err := ReadLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !reflect.DeepEqual(l.Meta, l2.Meta) {
			t.Fatalf("meta round trip mismatch: %v vs %v", l.Meta, l2.Meta)
		}
		if !reflect.DeepEqual(l.Events, l2.Events) {
			t.Fatalf("events round trip mismatch:\n%v\nvs\n%v", l.Events, l2.Events)
		}
	})
}

// FuzzManifestCodecRoundTrip does the same for the NFMAN shard-store
// manifest. An accepted manifest must name only shards it lists, since
// readers index Shards by entry, and must survive encode→decode unchanged.
func FuzzManifestCodecRoundTrip(f *testing.F) {
	seed := func(m *Manifest) {
		var buf bytes.Buffer
		if err := EncodeManifest(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(&Manifest{})
	seed(&Manifest{
		Shards: []string{"shard-000.nfts", "shard-001.nfts"},
		Entries: []ManifestEntry{
			{Session: "s000000", Shard: 1, Offset: 9, Length: 120, Protocol: "altbit",
				Verdict: "DL1", Events: 40, Ops: 12, Messages: 8, Deliveries: 7},
			{Session: "s000001", Protocol: "seqnum", Events: 31},
		},
	})
	f.Add([]byte("NFMAN\x01\x01\x00\x01\x01s\x05"))

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, ErrManifest) {
				t.Fatalf("decode error is not ErrManifest: %v", err)
			}
			return
		}
		for _, e := range m.Entries {
			if e.Shard < 0 || e.Shard >= len(m.Shards) {
				t.Fatalf("accepted entry %q names shard %d of %d", e.Session, e.Shard, len(m.Shards))
			}
		}
		var buf bytes.Buffer
		if err := EncodeManifest(&buf, m); err != nil {
			t.Fatalf("re-encoding accepted manifest: %v", err)
		}
		again, err := DecodeManifest(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the manifest:\n%+v\nvs\n%+v", m, again)
		}
	})
}
