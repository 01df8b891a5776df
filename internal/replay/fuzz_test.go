package replay

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ioa"
	"repro/internal/trace"
)

// FuzzReplayRobustness feeds arbitrary bytes through the trace decoder into
// the replayer. Replay is the trust boundary for certificates — shrunk,
// hand-edited and fuzzer-generated traces all pass through Run — so for any
// input whatsoever it must either return an error or a result, never panic.
// (Infeasible stale deliveries, exhausted decision streams, unknown
// protocols and observational traces are all defined, non-panicking
// outcomes.) Every decoded trace also goes through the unrecorded judge the
// shrinker and the certifier decide on, which must answer exactly as Run and
// CloseDrive do on the same trace, errors included; and every decoded trace
// of at most 64 op groups that Shrink accepts must shrink to the reference
// shrinker's result (TestShrinkMatchesReference).
func FuzzReplayRobustness(f *testing.F) {
	// Seed with a genuine recorded run, a truncation of it, two violating
	// runs, and junk.
	l := trace.NewLog(map[string]string{
		trace.MetaProtocol: "altbit",
		trace.MetaKind:     "sim",
	})
	l.Emit(trace.Event{Kind: trace.KindSubmit, Msg: ioa.Message{ID: 0, Payload: "m0"}})
	l.Emit(trace.Event{Kind: trace.KindTransmit})
	l.Emit(trace.Event{Kind: trace.KindDecision, Dir: ioa.TtoR, Decision: trace.DeliverNow})
	l.Emit(trace.Event{Kind: trace.KindStale, Dir: ioa.TtoR, Pkt: ioa.Packet{Header: "d0"}})
	l.Emit(trace.Event{Kind: trace.KindDrain})
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	// Logs Shrink accepts: a safety violation and a stranded message.
	f.Add(encoded(f, minimalAltbitViolation(f)))
	f.Add(encoded(f, strandedAltbitLog(f)))
	f.Add([]byte("NFTRC\x01\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		// Cap the raw input so a decoded log cannot stall an iteration with
		// megabyte payloads or a million-op replay; robustness is about
		// shape, not scale.
		if len(b) > 4096 {
			return
		}
		l, err := trace.ReadLog(bytes.NewReader(b))
		if err != nil {
			return // malformed file: the codec's problem, tested there
		}
		x, err := execFor(l)
		if err != nil {
			if _, rerr := Run(l); fmt.Sprint(rerr) != err.Error() {
				t.Fatalf("Run error %v, execFor error %v", rerr, err)
			}
			return
		}
		checkJudge(t, x, l)
		x.segment(l.Events)
		if len(x.bounds)-1 > 64 {
			return
		}
		if got, err := Shrink(l); err == nil {
			want, werr := refShrink(l)
			sameShrink(t, "decoded trace", got, err, want, werr)
		}
	})
}
