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

// judgeAll asks j everything the shrinker and the certifier ask: the safety
// verdict, and the closing outcome in both drive modes.
func judgeAll(j *judge, events []trace.Event) (*ioa.Violation, []*DriveOutcome, error) {
	v, err := j.safety(events)
	if err != nil {
		return nil, nil, err
	}
	var outs []*DriveOutcome
	for _, mode := range driveModes {
		out, err := j.close(events, mode, 0)
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

// checkJudge fails t unless j's answers on l equal the recording path's:
// Run's error or Verdict, and CloseDrive's outcome in both modes — Safety,
// DL3, Quiescent, CycleFound, RepeatedKey, Rounds, Submitted, Delivered and
// the replay bookkeeping. It returns the recording path's answers.
func checkJudge(t testing.TB, j *judge, l *trace.Log) (*Result, []*DriveOutcome) {
	t.Helper()
	v, got, jerr := judgeAll(j, l.Events)
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

// TestJudgeMatchesReplay licenses the judge: on seeded random schedules and
// random subsets of their operation groups — the candidates a shrink cuts —
// its safety answer equals Run's Verdict and its closing outcome equals
// CloseDrive's, in both drive modes; and one judge reused across a log's
// candidates answers exactly like a fresh judge per candidate. Between
// candidates the reused judge also takes the recording path (run and
// closeDrive), as Shrink's re-recording and CertifyLivelock do: what it
// records equals what a fresh judge records, byte for byte, and a log it
// returned stays as recorded through every later execution on the judge.
func TestJudgeMatchesReplay(t *testing.T) {
	var logs []*trace.Log
	for _, name := range []string{"altbit", "seqnum", "cntk4", "cheat1", "livelock", "stabnaive", "stabdl2"} {
		proto := replayLookup(t, name)
		_, corrupt := proto.(protocol.Corruptible)
		for seed := int64(1); seed <= 8; seed++ {
			logs = append(logs, randomLog(t, proto, seed, 40, corrupt))
		}
	}
	logs = append(logs, violatingAltbitLog(t), minimalAltbitViolation(t), strandedAltbitLog(t), livelockTrace(t, 3))

	// Each kind of answer must come up, or the equalities prove little.
	seen := map[string]int{}
	rng := rand.New(rand.NewSource(1))
	for li, l := range logs {
		j, err := newJudge(l)
		if err != nil {
			t.Fatalf("log %d: %v", li, err)
		}
		prelude, groups := segment(l)
		var runs []*trace.Log // the logs the reused judge's run returned
		var runBytes [][]byte // and their encodings when returned
		for k := 0; k < 12; k++ {
			// Candidate 0 is the whole log, then ever sparser subsets.
			keep := 1 - float64(k)/12
			c := trace.NewLog(nil)
			//nfvet:allow maprange (order-insensitive copy into another map)
			for key, v := range l.Meta {
				c.SetMeta(key, v)
			}
			c.Events = append(c.Events, prelude...)
			for _, g := range groups {
				if k == 0 || rng.Float64() < keep {
					c.Events = append(c.Events, g.events...)
				}
			}
			name := fmt.Sprintf("log %d (%s) candidate %d", li, l.Meta[trace.MetaProtocol], k)

			rr, outs := checkJudge(t, j, c)
			if rr == nil {
				t.Fatalf("%s: replay failed", name)
			}
			rec, err := j.run(c)
			if err != nil {
				t.Fatalf("%s: reused judge run: %v", name, err)
			}
			if !reflect.DeepEqual(rec, rr) || !bytes.Equal(encoded(t, rec.Log), encoded(t, rr.Log)) {
				t.Fatalf("%s: reused judge recorded\n%v\nfresh judge\n%v", name, rec.Log, rr.Log)
			}
			runs, runBytes = append(runs, rec.Log), append(runBytes, encoded(t, rec.Log))
			for i, mode := range driveModes {
				out, err := j.closeDrive(c, mode, 0)
				if err != nil {
					t.Fatalf("%s: reused judge closeDrive %s: %v", name, mode, err)
				}
				if !reflect.DeepEqual(out, outs[i]) {
					t.Fatalf("%s: %s closing drive:\nreused judge %+v\nCloseDrive   %+v", name, mode, *out, *outs[i])
				}
			}
			fresh, err := newJudge(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fv, fouts, ferr := judgeAll(fresh, c.Events)
			rv, routs, rerr := judgeAll(j, c.Events)
			if ferr != nil || rerr != nil {
				t.Fatalf("%s: fresh judge error %v, reused judge error %v", name, ferr, rerr)
			}
			if !reflect.DeepEqual(fv, rv) {
				t.Fatalf("%s: reused judge safety %v, fresh judge %v", name, rv, fv)
			}
			for i := range fouts {
				if !reflect.DeepEqual(*fouts[i], *routs[i]) {
					t.Fatalf("%s: %s closing drive:\nreused judge %+v\nfresh judge  %+v", name, fouts[i].Mode, *routs[i], *fouts[i])
				}
			}
			for i, rl := range runs {
				if !bytes.Equal(encoded(t, rl), runBytes[i]) {
					t.Fatalf("%s: the log run returned for candidate %d changed after later executions on its judge:\n%v", name, i, rl)
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
