package ioa

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// Feed replays a trace into a LiveChecker event by event. The native fuzz
// target, an external test, uses it too.
func Feed(c *LiveChecker, tr Trace) {
	for _, e := range tr {
		switch e.Kind {
		case SendMsg:
			c.SendMsg(e.Msg)
		case ReceiveMsg:
			c.ReceiveMsg(e.Msg)
		case SendPkt:
			c.SendPkt(e.Dir, e.Pkt)
		case ReceivePkt:
			c.ReceivePkt(e.Dir, e.Pkt)
		}
	}
}

// FeedChecked is Feed with the checker's queries held to its verdicts after
// every event, since the shrinker reads the verdict after every op group:
// SafetyVerdict names the Property and Index of the violation Safety()
// returns, or "" and -1 with it nil; a second Safety() call returns the same
// pointer, and so does every later one while that verdict stands; and
// Stranded is 0 exactly when DL3Quiescent() returns nil, and otherwise the
// count its Detail reports. The native fuzz target uses it too.
func FeedChecked(t *testing.T, c *LiveChecker, tr Trace) {
	t.Helper()
	var last error
	lastP, lastAt := "", -1
	for i := range tr {
		Feed(c, tr[i:i+1])
		s := c.Safety()
		p, at := c.SafetyVerdict()
		v, _ := AsViolation(s)
		switch {
		case s == nil && (p != "" || at != -1):
			t.Fatalf("event %d: SafetyVerdict %q at %d, Safety() nil\ntrace: %v", i, p, at, tr)
		case s != nil && (v.Property != p || v.Index != at):
			t.Fatalf("event %d: SafetyVerdict %q at %d, Safety() %v\ntrace: %v", i, p, at, s, tr)
		case s != c.Safety():
			t.Fatalf("event %d: a second Safety() call returned another violation\ntrace: %v", i, tr)
		case s != nil && p == lastP && at == lastAt && s != last:
			t.Fatalf("event %d: Safety() rebuilt the violation it returned before\ntrace: %v", i, tr)
		}
		last, lastP, lastAt = s, p, at
		n := c.Stranded()
		d, _ := AsViolation(c.DL3Quiescent())
		reported := 0
		if d != nil {
			if _, err := fmt.Sscanf(d.Detail, "%d of", &reported); err != nil {
				t.Fatalf("event %d: DL3 detail %q: %v", i, d.Detail, err)
			}
		}
		if n != reported || (n == 0) != (d == nil) {
			t.Fatalf("event %d: Stranded %d, DL3Quiescent() %v\ntrace: %v", i, n, d, tr)
		}
	}
}

// Diff compares a batch checker's error with the live checker's, demanding
// byte-identical violations (property, index and detail).
func Diff(t *testing.T, what string, tr Trace, batch, live error) {
	t.Helper()
	bv, bok := AsViolation(batch)
	lv, lok := AsViolation(live)
	switch {
	case batch == nil && live == nil:
		return
	case bok != lok || (batch == nil) != (live == nil):
		t.Fatalf("%s: batch %v, live %v\ntrace: %v", what, batch, live, tr)
	case *bv != *lv:
		t.Fatalf("%s: batch %+v, live %+v\ntrace: %v", what, *bv, *lv, tr)
	}
}

// randomTrace generates an adversarial event sequence over tiny payload and
// header spaces and a few message IDs drawn out of order from 0–40, so
// duplicate deliveries, spurious receives, payload mismatches, FIFO
// inversions and stranded messages all occur with high probability across
// the sweep, and unsent IDs sit between and past the sent ones.
func randomTrace(rng *rand.Rand, n int) Trace {
	ids := rng.Perm(41)[:2+rng.Intn(4)]
	var tr Trace
	for i := 0; i < n; i++ {
		msg := Message{ID: ids[rng.Intn(len(ids))], Payload: fmt.Sprintf("p%d", rng.Intn(3))}
		pkt := Packet{Header: fmt.Sprintf("h%d", rng.Intn(3))}
		if rng.Intn(4) == 0 {
			pkt.Payload = msg.Payload
		}
		dir := TtoR
		if rng.Intn(2) == 0 {
			dir = RtoT
		}
		switch rng.Intn(4) {
		case 0:
			tr = append(tr, Event{Kind: SendMsg, Msg: msg})
		case 1:
			tr = append(tr, Event{Kind: ReceiveMsg, Msg: msg})
		case 2:
			tr = append(tr, Event{Kind: SendPkt, Dir: dir, Pkt: pkt})
		case 3:
			tr = append(tr, Event{Kind: ReceivePkt, Dir: dir, Pkt: pkt})
		}
	}
	return tr
}

// runnerTrace generates the event shapes sim.Runner emits: sends numbered
// 0, 1, 2, … and receives numbered by delivery count, a DeliverNow
// send_pkt(p) followed at once by receive_pkt(p) on the same direction,
// bursts of one retransmitted packet, and data and acks interleaved. Stale
// deliveries of delayed copies, re-deliveries of old payloads and receives
// of packets with no unmatched send make PL1, DL1 and DL3 fire.
func runnerTrace(rng *rand.Rand, n int) Trace {
	var tr Trace
	var delayed [2][]Packet // per direction, copies sent but not received
	sent, delivered := 0, 0
	for len(tr) < n {
		d := TtoR
		if rng.Intn(2) == 0 {
			d = RtoT
		}
		switch rng.Intn(7) {
		case 0:
			tr = append(tr, Event{Kind: SendMsg, Msg: Message{ID: sent, Payload: fmt.Sprintf("m%d", sent)}})
			sent++
		case 1:
			m := Message{ID: delivered, Payload: fmt.Sprintf("m%d", delivered)}
			if rng.Intn(6) == 0 {
				m.Payload = fmt.Sprintf("m%d", rng.Intn(delivered+1))
			}
			tr = append(tr, Event{Kind: ReceiveMsg, Msg: m})
			delivered++
		case 2, 3, 4:
			p := Packet{Header: fmt.Sprintf("h%d", rng.Intn(3))}
			if d == TtoR && rng.Intn(2) == 0 {
				p.Payload = fmt.Sprintf("m%d", sent)
			}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				tr = append(tr, Event{Kind: SendPkt, Dir: d, Pkt: p})
				if rng.Intn(3) == 0 {
					delayed[d-1] = append(delayed[d-1], p)
				} else {
					tr = append(tr, Event{Kind: ReceivePkt, Dir: d, Pkt: p})
				}
			}
		case 5:
			if q := delayed[d-1]; len(q) > 0 {
				j := rng.Intn(len(q))
				tr = append(tr, Event{Kind: ReceivePkt, Dir: d, Pkt: q[j]})
				delayed[d-1] = append(q[:j], q[j+1:]...)
			}
		case 6:
			if rng.Intn(4) == 0 {
				tr = append(tr, Event{Kind: ReceivePkt, Dir: d, Pkt: Packet{Header: fmt.Sprintf("h%d", rng.Intn(3))}})
			}
		}
	}
	return tr
}

// reorderTrace generates message traffic alone: sends numbered 0, 1, 2, …
// with distinct payloads, and receives of sent messages in any order, each
// once, now and then with another message's payload. PL1 holds, and DL1
// often does, so DL2 is the property Safety() reports in many of them.
func reorderTrace(rng *rand.Rand, n int) Trace {
	var tr Trace
	var pending []int // sent IDs not yet received
	for sent := 0; len(tr) < n; {
		if len(pending) == 0 || rng.Intn(2) == 0 {
			tr = append(tr, Event{Kind: SendMsg, Msg: Message{ID: sent, Payload: fmt.Sprintf("m%d", sent)}})
			pending = append(pending, sent)
			sent++
			continue
		}
		j := rng.Intn(len(pending))
		m := Message{ID: pending[j], Payload: fmt.Sprintf("m%d", pending[j])}
		if rng.Intn(10) == 0 {
			m.Payload = fmt.Sprintf("m%d", rng.Intn(sent))
		}
		tr = append(tr, Event{Kind: ReceiveMsg, Msg: m})
		pending = append(pending[:j], pending[j+1:]...)
	}
	return tr
}

// TestLiveCheckerMatchesBatch is the equivalence property the interned fuzz
// core's clean-run judging rests on: over thousands of adversarial and
// runner-shaped random traces, the streaming checker agrees with
// CheckSafety and CheckDL3Quiescent byte for byte, violations included,
// whether it builds its violations as they fire or only at the end, and
// its queries agree with its verdicts after every event. One checker
// instance is Reset between traces of every family, so the reuse path is
// what gets proved, and a Reset leaves no verdict behind. Each of the four
// safety properties must be the one Safety() reports in some trace, or a
// query that ignored it would pass.
func TestLiveCheckerMatchesBatch(t *testing.T) {
	c := NewLiveChecker()
	// Fixed cases first. A packet event on a direction that is neither t→r
	// nor r→t is ignored by both CheckPL1 passes, so the receive below has
	// no matching send on r→t: PL1 at event 1, live as in batch.
	a0 := Packet{Header: "a0"}
	for _, tr := range []Trace{
		{{Kind: SendPkt, Dir: Dir(3), Pkt: a0}, {Kind: ReceivePkt, Dir: RtoT, Pkt: a0}},
	} {
		c.Reset()
		Feed(c, tr)
		Diff(t, "fixed safety", tr, CheckSafety(tr), c.Safety())
		Diff(t, "fixed dl3", tr, CheckDL3Quiescent(tr), c.DL3Quiescent())
	}
	rng := rand.New(rand.NewSource(1))
	families := []struct {
		name string
		gen  func(*rand.Rand, int) Trace
	}{{"adversarial", randomTrace}, {"runner", runnerTrace}, {"reorder", reorderTrace}}
	fired := make(map[string]map[string]int) // family -> property -> first violations seen
	var reported [len(safetyProps)]int       // traces whose Safety() is each property's
	for _, f := range families {
		fired[f.name] = make(map[string]int)
	}
	// c is queried after every event, so it builds each violation as it
	// fires; late is read only at the end, and builds them then.
	late := NewLiveChecker()
	for trial := 0; trial < 8000; trial++ {
		f := families[trial%len(families)]
		tr := f.gen(rng, 2+rng.Intn(40))
		c.Reset()
		if p, at := c.SafetyVerdict(); c.Safety() != nil || p != "" || at != -1 || c.Stranded() != 0 || c.DL3Quiescent() != nil {
			t.Fatalf("after Reset: Safety() %v, SafetyVerdict %q at %d, Stranded %d", c.Safety(), p, at, c.Stranded())
		}
		late.Reset()
		FeedChecked(t, c, tr)
		Feed(late, tr)
		if k := c.first(); k >= 0 {
			reported[k]++
		}
		for _, k := range []*LiveChecker{c, late} {
			Diff(t, f.name+" safety", tr, CheckSafety(tr), k.Safety())
			Diff(t, f.name+" dl3", tr, CheckDL3Quiescent(tr), k.DL3Quiescent())
			// Safety() shows only the first property in CheckSafety's order,
			// so each property's own first violation is held to its batch
			// checker too: a later property's state must be right even when
			// an earlier one masks it.
			for _, p := range []struct {
				batch error
				live  *Violation
			}{
				{CheckPL1(tr, TtoR), k.fault(0)},
				{CheckPL1(tr, RtoT), k.fault(1)},
				{CheckDL1(tr), k.fault(2)},
				{CheckDL2(tr), k.fault(3)},
			} {
				var live error
				if p.live != nil {
					live = p.live
					if k == c {
						fired[f.name][p.live.Property]++
					}
				}
				Diff(t, f.name+" property", tr, p.batch, live)
			}
		}
		if c.DL3Quiescent() != nil {
			fired[f.name]["DL3"]++
		}
	}
	for name, want := range map[string][]string{
		"adversarial": {"PL1", "DL1", "DL2", "DL3"},
		"runner":      {"PL1", "DL1", "DL3"}, // receives in delivery order never invert DL2
		"reorder":     {"DL1", "DL2", "DL3"},
	} {
		for _, prop := range want {
			if fired[name][prop] == 0 {
				t.Fatalf("%s traces never violated %s; the generator is too tame to prove anything", name, prop)
			}
		}
	}
	for k, n := range reported {
		if n == 0 {
			t.Fatalf("no trace's Safety() reported property %d (%s); its query is untested", k, safetyProps[k])
		}
	}
	t.Logf("8000 traces, first violations by family and property %v, Safety() by property %v, zero divergence", fired, reported)
}

// TestLiveCheckerResetLeaksNothing feeds a checker traces over one packet
// alphabet and message ID range, resets it, and feeds it a trace over a
// disjoint alphabet and range: its verdicts must equal a fresh checker's
// (and the batch checkers'), Index and Detail included, and its packet
// table and its list of the table's packets must hold only the new trace's
// packets, so nothing survives Reset in the table, the per-direction caches
// or the slices' reused storage. Every 50th trial first feeds a run with
// hundreds of packets, so the short runs after it reset a table far larger
// than they are.
func TestLiveCheckerResetLeaksNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// over renames a trace's headers with prefix and shifts its IDs by base.
	over := func(tr Trace, prefix string, base int) Trace {
		out := make(Trace, len(tr))
		for i, e := range tr {
			if e.Kind == SendPkt || e.Kind == ReceivePkt {
				e.Pkt.Header = prefix + e.Pkt.Header
			} else {
				e.Msg.ID += base
			}
			out[i] = e
		}
		return out
	}
	// long sends n distinct packets each way and n messages, receiving none.
	long := func(n int) Trace {
		var tr Trace
		for i := 0; i < n; i++ {
			p := Packet{Header: "l" + strconv.Itoa(i)}
			tr = append(tr, Event{Kind: SendMsg, Msg: Message{ID: i, Payload: "x"}},
				Event{Kind: SendPkt, Dir: TtoR, Pkt: p}, Event{Kind: SendPkt, Dir: RtoT, Pkt: p})
		}
		return tr
	}
	gens := []func(*rand.Rand, int) Trace{randomTrace, runnerTrace}
	c := NewLiveChecker()
	for trial := 0; trial < 2000; trial++ {
		// Alternate which trace holds the high IDs, so the reused slice is
		// both shorter and longer than its storage.
		baseA, baseB := 0, 50
		if trial%2 == 1 {
			baseA, baseB = 50, 0
		}
		if trial%50 == 0 {
			c.Reset()
			Feed(c, long(300+trial/4))
		}
		c.Reset()
		for k := 0; k < 3; k++ {
			Feed(c, over(gens[rng.Intn(2)](rng, 2+rng.Intn(40)), "a", baseA))
		}
		tr := over(gens[rng.Intn(2)](rng, 2+rng.Intn(40)), "b", baseB)
		c.Reset()
		Feed(c, tr)
		fresh := NewLiveChecker()
		Feed(fresh, tr)
		Diff(t, "safety vs fresh", tr, fresh.Safety(), c.Safety())
		Diff(t, "dl3 vs fresh", tr, fresh.DL3Quiescent(), c.DL3Quiescent())
		Diff(t, "safety vs batch", tr, CheckSafety(tr), c.Safety())
		Diff(t, "dl3 vs batch", tr, CheckDL3Quiescent(tr), c.DL3Quiescent())
		if len(c.pkts) != len(fresh.pkts) || c.Events() != fresh.Events() || !slices.Equal(c.keys, fresh.keys) {
			t.Fatalf("after Reset the checker holds %d packets, lists %v and counts %d events, a fresh one %d, %v and %d",
				len(c.pkts), c.keys, c.Events(), len(fresh.pkts), fresh.keys, fresh.Events())
		}
	}
}

// TestLiveCheckerCleanRun feeds a well-formed exchange and checks both
// verdicts are clean.
func TestLiveCheckerCleanRun(t *testing.T) {
	m := Message{ID: 0, Payload: "hello"}
	p := Packet{Header: "0", Payload: "hello"}
	tr := Trace{
		{Kind: SendMsg, Msg: m},
		{Kind: SendPkt, Dir: TtoR, Pkt: p},
		{Kind: ReceivePkt, Dir: TtoR, Pkt: p},
		{Kind: ReceiveMsg, Msg: m},
	}
	c := NewLiveChecker()
	Feed(c, tr)
	if err := c.Safety(); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	if err := c.DL3Quiescent(); err != nil {
		t.Fatalf("quiescent run flagged: %v", err)
	}
}
