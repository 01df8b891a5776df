package replay

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

var driveModes = []DriveMode{DriveReliable, DriveAdversarial}

// randomLog records n seeded random step-API operations of proto — submits,
// transmits, drains, and stale deliveries and drops of copies in transit —
// under channels that deliver, delay or drop each packet at random. With
// corrupt set, the run first takes a random start from proto's corruption
// space and poisons each channel with up to two packets of its poison
// alphabet.
func randomLog(t testing.TB, proto protocol.Protocol, seed int64, n int, corrupt bool) *trace.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fate := channel.PolicyFunc(func(ioa.Packet) channel.Decision {
		switch x := rng.Intn(20); {
		case x < 11:
			return channel.DeliverNow
		case x < 17:
			return channel.Delay
		}
		return channel.Drop
	})
	l := trace.NewLog(nil)
	r := sim.NewRunner(sim.Config{Protocol: proto, DataPolicy: fate, AckPolicy: fate, TraceLog: l})
	if corrupt {
		space := proto.(protocol.Corruptible).Corruptions()
		if err := r.CorruptStart(rng.Intn(len(space.Transmitters)), rng.Intn(len(space.Receivers))); err != nil {
			t.Fatal(err)
		}
		for _, d := range []ioa.Dir{ioa.TtoR, ioa.RtoT} {
			alpha := space.DataPoison
			if d == ioa.RtoT {
				alpha = space.AckPoison
			}
			for k := rng.Intn(3); k > 0 && len(alpha) > 0; k-- {
				if err := r.Poison(d, alpha[rng.Intn(len(alpha))]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, submits := 0, 0; i < n; i++ {
		switch x := rng.Intn(20); {
		case x < 3:
			r.SubmitMsg("m" + strconv.Itoa(submits))
			submits++
		case x < 10:
			r.StepTransmit()
		case x < 15:
			r.DrainAcks()
		default:
			d, ch := ioa.TtoR, r.ChData
			if rng.Intn(2) == 0 {
				d, ch = ioa.RtoT, r.ChAck
			}
			pkts := ch.Packets()
			if len(pkts) == 0 {
				continue
			}
			p := pkts[rng.Intn(len(pkts))]
			// Picked from the live channel, so neither move can fail here;
			// candidates cut from the log may make them infeasible.
			if x < 18 {
				_ = r.DeliverStale(d, p)
			} else {
				_ = r.DropStale(d, p)
			}
		}
	}
	return l
}

// safetyOf re-drives events on x and returns the first safety violation of
// the execution, as Run's Verdict reports it; nil when it is safe.
func safetyOf(x *Exec, events []trace.Event) (*ioa.Violation, error) {
	if err := x.exec(events, nil, false); err != nil {
		return nil, err
	}
	v, _ := ioa.AsViolation(x.Check.Safety())
	return v, nil
}

// judgeAll asks x everything the shrinker and the certifier ask: the safety
// verdict, and the closing outcome in both drive modes.
func judgeAll(x *Exec, events []trace.Event) (*ioa.Violation, []*DriveOutcome, error) {
	v, err := safetyOf(x, events)
	if err != nil {
		return nil, nil, err
	}
	var outs []*DriveOutcome
	for _, mode := range driveModes {
		out, err := x.close(events, mode, 0)
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, out)
	}
	return v, outs, nil
}

// stripped drops what only the recording path reports: the capture log and
// the cycle's event positions (the judge's count rounds).
func stripped(o DriveOutcome) DriveOutcome {
	o.Log = nil
	o.CycleStart, o.CycleEnd = 0, 0
	return o
}

// checkJudge fails t unless x's answers on l equal the recording path's:
// Run's error or Verdict, and CloseDrive's outcome in both modes — Safety,
// DL3, Quiescent, CycleFound, RepeatedKey, Rounds, Submitted, Delivered and
// the replay bookkeeping. It returns the recording path's answers.
func checkJudge(t testing.TB, x *Exec, l *trace.Log) (*Result, []*DriveOutcome) {
	t.Helper()
	v, got, jerr := judgeAll(x, l.Events)
	rr, err := Run(l)
	if err == nil && rr == nil {
		t.Fatal("Run returned neither result nor error")
	}
	if fmt.Sprint(err) != fmt.Sprint(jerr) {
		t.Fatalf("Run error %v, judge error %v", err, jerr)
	}
	if err != nil {
		return nil, nil
	}
	if !reflect.DeepEqual(v, rr.Verdict) {
		t.Fatalf("judge safety %v, Run verdict %v", v, rr.Verdict)
	}
	var want []*DriveOutcome
	for i, mode := range driveModes {
		out, err := CloseDrive(l, mode, 0)
		if err != nil {
			t.Fatalf("CloseDrive %s failed on a trace Run replays: %v", mode, err)
		}
		if w, g := stripped(*out), stripped(*got[i]); !reflect.DeepEqual(w, g) {
			t.Fatalf("%s closing drive:\njudge      %+v\nCloseDrive %+v", mode, g, w)
		}
		want = append(want, out)
	}
	return rr, want
}

// encoded returns l's NFT encoding.
func encoded(t testing.TB, l *trace.Log) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := l.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// judgeLogs returns TestJudgeMatchesReplay's logs: seeded random schedules
// of seven protocols, eight seeds each (corrupted starts where the protocol
// declares a corruption space), and the package's fixtures.
func judgeLogs(t testing.TB) []*trace.Log {
	var logs []*trace.Log
	for _, name := range []string{"altbit", "seqnum", "cntk4", "cheat1", "livelock", "stabnaive", "stabdl2"} {
		proto := replayLookup(t, name)
		_, corrupt := proto.(protocol.Corruptible)
		for seed := int64(1); seed <= 8; seed++ {
			logs = append(logs, randomLog(t, proto, seed, 40, corrupt))
		}
	}
	return append(logs, violatingAltbitLog(t), minimalAltbitViolation(t), strandedAltbitLog(t), livelockTrace(t, 3))
}

// candidateLog returns the candidate keep of the log segmented on x as a
// log of its own: l's metadata, the prelude, then the kept op groups'
// events.
func candidateLog(x *Exec, l *trace.Log, keep []int) *trace.Log {
	c := trace.NewLog(l.Meta)
	c.Events = append(c.Events, x.prelude()...)
	for _, g := range keep {
		c.Events = append(c.Events, x.group(g)...)
	}
	return c
}

// TestJudgeMatchesReplay licenses the judge: on seeded random schedules and
// random subsets of their operation groups — the candidates a shrink cuts —
// its safety answer equals Run's Verdict and its closing outcome equals
// CloseDrive's, in both drive modes, whether it replays the candidate's
// events or the candidate's group indices straight from the source log, as
// the shrinker does; and one executor reused across a log's candidates
// answers exactly like a fresh one per candidate. Between candidates the
// reused executor also takes the recording path (run and closeDrive), as
// Shrink's re-recording and CertifyLivelock do: what it records equals what
// a fresh one records, byte for byte, and a log it returned stays as
// recorded through every later execution on it.
func TestJudgeMatchesReplay(t *testing.T) {
	// Each kind of answer must come up, or the equalities prove little.
	seen := map[string]int{}
	rng := rand.New(rand.NewSource(1))
	for li, l := range judgeLogs(t) {
		x, err := execFor(l)
		if err != nil {
			t.Fatalf("log %d: %v", li, err)
		}
		var runs []*trace.Log // the logs the reused executor's run returned
		var runBytes [][]byte // and their encodings when returned
		var keep []int
		for k := 0; k < 12; k++ {
			// Candidate 0 is the whole log, then ever sparser subsets.
			p := 1 - float64(k)/12
			x.segment(l.Events)
			keep = keep[:0]
			for g := 0; g < len(x.bounds)-1; g++ {
				if k == 0 || rng.Float64() < p {
					keep = append(keep, g)
				}
			}
			c := candidateLog(x, l, keep)
			name := fmt.Sprintf("log %d (%s) candidate %d", li, l.Meta[trace.MetaProtocol], k)

			rr, outs := checkJudge(t, x, c)
			if rr == nil {
				t.Fatalf("%s: replay failed", name)
			}
			x.segment(l.Events) // checkJudge's replays segmented c
			if err := x.replay(keep, nil, false); err != nil {
				t.Fatalf("%s: replaying the candidate's groups: %v", name, err)
			}
			if v, _ := ioa.AsViolation(x.Check.Safety()); !reflect.DeepEqual(v, rr.Verdict) {
				t.Fatalf("%s: group replay safety %v, Run verdict %v", name, v, rr.Verdict)
			}
			for i, mode := range driveModes {
				want := outs[i].Safety == nil && outs[i].DL3 != nil
				if got := livenessOracle(mode).holds(x, keep); got != want {
					t.Fatalf("%s: %s liveness oracle on the candidate's groups %v, CloseDrive %+v", name, mode, got, *outs[i])
				}
			}
			rec, err := x.run(c)
			if err != nil {
				t.Fatalf("%s: reused executor run: %v", name, err)
			}
			if !reflect.DeepEqual(rec, rr) || !bytes.Equal(encoded(t, rec.Log), encoded(t, rr.Log)) {
				t.Fatalf("%s: reused executor recorded\n%v\nfresh executor\n%v", name, rec.Log, rr.Log)
			}
			runs, runBytes = append(runs, rec.Log), append(runBytes, encoded(t, rec.Log))
			for i, mode := range driveModes {
				out, err := x.closeDrive(c, mode, 0)
				if err != nil {
					t.Fatalf("%s: reused executor closeDrive %s: %v", name, mode, err)
				}
				if !reflect.DeepEqual(out, outs[i]) {
					t.Fatalf("%s: %s closing drive:\nreused executor %+v\nCloseDrive      %+v", name, mode, *out, *outs[i])
				}
			}
			fresh, err := execFor(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fv, fouts, ferr := judgeAll(fresh, c.Events)
			rv, routs, rerr := judgeAll(x, c.Events)
			if ferr != nil || rerr != nil {
				t.Fatalf("%s: fresh executor error %v, reused executor error %v", name, ferr, rerr)
			}
			if !reflect.DeepEqual(fv, rv) {
				t.Fatalf("%s: reused executor safety %v, fresh executor %v", name, rv, fv)
			}
			for i := range fouts {
				if !reflect.DeepEqual(*fouts[i], *routs[i]) {
					t.Fatalf("%s: %s closing drive:\nreused executor %+v\nfresh executor  %+v", name, fouts[i].Mode, *routs[i], *fouts[i])
				}
			}
			for i, rl := range runs {
				if !bytes.Equal(encoded(t, rl), runBytes[i]) {
					t.Fatalf("%s: the log run returned for candidate %d changed after later executions on its executor:\n%v", name, i, rl)
				}
			}

			if rr.Verdict != nil {
				seen["safety "+rr.Verdict.Property]++
			}
			if rr.StaleSkipped > 0 {
				seen["stale skipped"]++
			}
			if rr.DecisionsExhausted {
				seen["decisions exhausted"]++
			}
			for _, o := range outs {
				switch {
				case o.Quiescent:
					seen[o.Mode.String()+" quiescent"]++
				case o.CycleFound:
					seen[o.Mode.String()+" cycle"]++
				}
				if o.Safety == nil && o.DL3 != nil {
					seen[o.Mode.String()+" DL3"]++
				}
			}
		}
	}
	for _, want := range []string{"safety DL1", "stale skipped", "decisions exhausted",
		"reliable quiescent", "reliable cycle", "reliable DL3",
		"adversarial quiescent", "adversarial cycle", "adversarial DL3"} {
		if seen[want] == 0 {
			t.Errorf("no candidate with %s; answers seen: %v", want, seen)
		}
	}
}

// BenchmarkShrink times one Shrink of the padded altbit duplication attack:
// the safety oracle's candidates, then the re-recording of the kept one.
func BenchmarkShrink(b *testing.B) {
	l := violatingAltbitLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Shrink(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCertifyRefusal times one refused livelock certification: a
// stranded altbit trace that the reliable closing drive recovers, the
// fuzzer's most common livelock candidate.
func BenchmarkCertifyRefusal(b *testing.B) {
	l := strandedAltbitLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CertifyLivelock(l, CertifyOptions{}); err == nil {
			b.Fatal("certified a trace altbit recovers from")
		}
	}
}
