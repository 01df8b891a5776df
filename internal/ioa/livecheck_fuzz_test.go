package ioa_test

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// The fuzz encoding spends two bytes per event. The first packs the kind
// (bits 0–1), the direction (bit 2), a header index (bits 3–4) and a
// payload index (bits 5–7); the second is a message event's ID. A packet
// event's second byte, when nonzero, is its direction instead, so packets
// also travel on directions that are neither t→r nor r→t. Headers and
// payloads come from small alphabets, so equal packets and matching
// messages are common.
var (
	fuzzHeaders  = [4]string{"0", "1", "d0", "a0"}
	fuzzPayloads = [8]string{"", "m0", "m1", "m2", "m3", "m4", "m5", "m6"}
)

// decodeEvents reads an event stream from b; a trailing odd byte is ignored.
func decodeEvents(b []byte) ioa.Trace {
	tr := make(ioa.Trace, 0, len(b)/2)
	for ; len(b) >= 2; b = b[2:] {
		e := ioa.Event{Kind: ioa.SendMsg + ioa.Kind(b[0]&3)}
		payload := fuzzPayloads[b[0]>>5]
		switch e.Kind {
		case ioa.SendMsg, ioa.ReceiveMsg:
			e.Msg = ioa.Message{ID: int(b[1]), Payload: payload}
		default:
			e.Dir = ioa.TtoR
			if b[0]&4 != 0 {
				e.Dir = ioa.RtoT
			}
			if b[1] != 0 {
				e.Dir = ioa.Dir(b[1])
			}
			e.Pkt = ioa.Packet{Header: fuzzHeaders[b[0]>>3&3], Payload: payload}
		}
		tr = append(tr, e)
	}
	return tr
}

// encodeEvents is decodeEvents' inverse up to renaming: it maps each
// distinct header and payload of tr to an alphabet index in order of first
// appearance ("" stays payload 0), wrapping when an alphabet runs out. A
// packet on direction 0 encodes as t→r.
func encodeEvents(tr ioa.Trace) []byte {
	headers, payloads := map[string]int{}, map[string]int{"": 0}
	index := func(m map[string]int, s string, n int) byte {
		i, ok := m[s]
		if !ok {
			i = len(m) % n
			m[s] = i
		}
		return byte(i)
	}
	var b []byte
	for _, e := range tr {
		b0 := byte(e.Kind - ioa.SendMsg)
		var id byte
		switch e.Kind {
		case ioa.SendMsg, ioa.ReceiveMsg:
			b0 |= index(payloads, e.Msg.Payload, len(fuzzPayloads)) << 5
			id = byte(min(e.Msg.ID, 255))
		default:
			switch e.Dir {
			case ioa.TtoR:
			case ioa.RtoT:
				b0 |= 4
			default:
				id = byte(e.Dir)
			}
			b0 |= index(headers, e.Pkt.Header, len(fuzzHeaders))<<3 | index(payloads, e.Pkt.Payload, len(fuzzPayloads))<<5
		}
		b = append(b, b0, id)
	}
	return b
}

// recordedAttack records the alternating bit attack with sim.Runner: the
// first data packet is delayed, two messages go through, and the stale copy
// is delivered while the third message is outstanding.
func recordedAttack(tb testing.TB) ioa.Trace {
	r := sim.NewRunner(sim.Config{
		Protocol:    protocol.NewAltBit(),
		DataPolicy:  channel.DelayFirst(1),
		Payload:     protocol.Payload,
		RecordTrace: true,
	})
	if res := r.Run(2); res.Err != nil {
		tb.Fatal(res.Err)
	}
	r.SubmitMsg(protocol.Payload(2))
	var stale ioa.Packet
	for _, e := range r.Recorder().Trace() {
		if e.Kind == ioa.SendPkt && e.Dir == ioa.TtoR {
			stale = e.Pkt
			break
		}
	}
	if err := r.DeliverStale(ioa.TtoR, stale); err != nil {
		tb.Fatal(err)
	}
	if err := r.RunToIdle(); err != nil {
		tb.Fatal(err)
	}
	tr := r.Recorder().Trace()
	if ioa.CheckSafety(tr) == nil {
		tb.Fatalf("the recorded attack violates nothing:\n%v", tr)
	}
	return tr
}

// judge feeds tr to c, holding its queries to its verdicts after every
// event, and to a new checker read only at the end, and holds both
// checkers' verdicts to the batch checkers.
func judge(t *testing.T, c *ioa.LiveChecker, tr ioa.Trace) {
	t.Helper()
	late := ioa.NewLiveChecker()
	ioa.FeedChecked(t, c, tr)
	ioa.Feed(late, tr)
	for _, k := range []*ioa.LiveChecker{c, late} {
		ioa.Diff(t, "safety", tr, ioa.CheckSafety(tr), k.Safety())
		ioa.Diff(t, "dl3", tr, ioa.CheckDL3Quiescent(tr), k.DL3Quiescent())
	}
}

// FuzzLiveCheckerMatchesBatch holds the streaming checker to CheckSafety
// and CheckDL3Quiescent on arbitrary event streams over small alphabets
// and IDs 0–255, and its queries to its verdicts after every event, then
// resets it and holds it again on the stream's second half, so state the
// first feed left behind must not show.
func FuzzLiveCheckerMatchesBatch(f *testing.F) {
	f.Add(encodeEvents(recordedAttack(f)))
	f.Add([]byte{})
	f.Add([]byte{0x00, 3, 0x01, 3, 0x01, 3})                      // send m3, deliver it twice
	f.Add([]byte{0x0a, 0, 0x0b, 0, 0x0b, 0, 0x07, 0})             // send_pkt 1, receive it twice; r→t receive
	f.Add([]byte{0x00, 0, 0x00, 1, 0x01, 1, 0x01, 0})             // FIFO inversion
	f.Add([]byte{0x20, 40, 0x40, 2, 0x21, 40, 0x41, 9, 0x41, 60}) // sparse IDs; receive a gap and past the end
	f.Add([]byte{0x02, 3, 0x07, 0})                               // send_pkt on direction 3, receive on r→t
	f.Fuzz(func(t *testing.T, b []byte) {
		tr := decodeEvents(b)
		c := ioa.NewLiveChecker()
		judge(t, c, tr)
		c.Reset()
		judge(t, c, tr[len(tr)/2:])
	})
}
