package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/ioa"
)

// everyKindLog holds one event of every kind a version-1 log can carry
// (corruptedLog holds the version-2 kinds).
func everyKindLog() *Log {
	return &Log{
		Meta: map[string]string{MetaProtocol: "altbit", MetaKind: "sim"},
		Events: []Event{
			{Kind: KindSubmit, Msg: ioa.Message{ID: 0, Payload: "m0"}},
			{Kind: KindTransmit},
			{Kind: KindDecision, Dir: ioa.TtoR, Decision: Delay},
			{Kind: KindSendPkt, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "d0", Payload: "m0"}},
			{Kind: KindDrain},
			{Kind: KindStale, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "d0", Payload: "m0"}},
			{Kind: KindRecvPkt, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "d0", Payload: "m0"}},
			{Kind: KindRecvMsg, Msg: ioa.Message{ID: 0, Payload: "m0"}},
			{Kind: KindDropStale, Dir: ioa.RtoT, Pkt: ioa.Packet{Header: "a0"}},
			{Kind: KindRNG, Bits: 0xdeadbeef},
			{Kind: KindVerdict, Property: "DL1", Index: 3, Detail: "dup"},
		},
	}
}

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
	seed(everyKindLog())
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

// FuzzShardScan feeds arbitrary bytes to the shard scan as one shard file.
// The scan must not panic, every error it returns must wrap ErrShard, and
// every frame it indexes must read back through its entry, which must equal
// the entry Put computes from the log read back and carry that log's
// Collect headline.
func FuzzShardScan(f *testing.F) {
	shard := []byte(shardHeader)
	for i, l := range []*Log{soakLog(0), corruptedLog(), soakLog(5), everyKindLog()} {
		_, frame, _ := encodeFrame(nil, fmt.Sprintf("s%06d", i), l)
		shard = append(shard, frame...)
	}
	f.Add(shard)
	f.Add(shard[:len(shard)-3])
	f.Add([]byte(shardHeader))
	f.Add([]byte{})
	f.Add(oldFormatShard(f))

	f.Fuzz(func(t *testing.T, b []byte) {
		entries, err := scanShard(bytes.NewReader(b), 0, nil)
		if err != nil {
			if !errors.Is(err, ErrShard) {
				t.Fatalf("scan error is not ErrShard: %v", err)
			}
			return
		}
		for _, e := range entries {
			l, err := readEntry(bytes.NewReader(b), e)
			if err != nil {
				t.Fatalf("indexed session %q does not read back: %v", e.Session, err)
			}
			want := newEntry(e.Session, e.Shard, int(e.Length), l)
			want.Offset = e.Offset
			if e != want {
				t.Fatalf("scanned entry %+v, the read-back log's is %+v", e, want)
			}
			st := Collect(l)
			if e.Events != st.Events || e.Ops != st.Ops || e.Messages != st.Messages ||
				e.Deliveries != st.Deliveries || e.Verdict != st.Verdict {
				t.Fatalf("entry %+v disagrees with the log's stats %+v", e, st)
			}
		}
	})
}
