package replay

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// The reference shrinker, the test reference for Shrink and
// ShrinkLiveness: the same delta-debugging search done the plain way. It
// copies each op group's events out of the log, builds every candidate's
// events afresh, finds the minimal violating prefix by binary search,
// sweeps the whole kept list until a sweep removes nothing, and re-records
// the kept candidate through run (Run on the executor).

// refGroup is one driver operation plus its trailing observation events.
type refGroup struct{ events []trace.Event }

// refSegment splits a log's events into operation groups. Events preceding
// the first operation form a prelude kept in every candidate; verdict
// events are dropped.
func refSegment(l *trace.Log) (prelude []trace.Event, groups []refGroup) {
	for _, e := range l.Events {
		if e.Kind == trace.KindVerdict {
			continue
		}
		if e.Kind.IsOp() {
			groups = append(groups, refGroup{events: []trace.Event{e}})
			continue
		}
		if len(groups) == 0 {
			prelude = append(prelude, e)
			continue
		}
		g := &groups[len(groups)-1]
		g.events = append(g.events, e)
	}
	return prelude, groups
}

// refOracle is the reference's shrink-preservation predicate over
// candidate events.
type refOracle struct {
	property, name string
	prefixPass     bool
	holds          func(x *Exec, events []trace.Event) bool
}

func refSafetyOracle(property string) refOracle {
	return refOracle{property: property, name: "safety", prefixPass: true,
		holds: func(x *Exec, c []trace.Event) bool {
			v, err := safetyOf(x, c)
			return err == nil && v != nil && v.Property == property
		}}
}

func refLivenessOracle(mode DriveMode) refOracle {
	return refOracle{property: "DL3", name: "DL3-" + mode.String(),
		holds: func(x *Exec, c []trace.Event) bool {
			out, err := x.close(c, mode, 0)
			return err == nil && out.Safety == nil && out.DL3 != nil
		}}
}

func refShrinkWith(l *trace.Log, x *Exec, o refOracle, res *ShrinkResult) (*ShrinkResult, error) {
	res.Property = o.property
	res.Oracle = o.name

	prelude, groups := refSegment(l)
	var buf []trace.Event
	events := func(keep []refGroup) []trace.Event {
		buf = append(buf[:0], prelude...)
		for _, g := range keep {
			buf = append(buf, g.events...)
		}
		return buf
	}
	violates := func(keep []refGroup) bool {
		res.Replays++
		return o.holds(x, events(keep))
	}

	kept := append([]refGroup(nil), groups...)
	if o.prefixPass {
		lo, hi := 1, len(groups)
		for lo < hi {
			mid := (lo + hi) / 2
			if violates(groups[:mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		kept = append([]refGroup(nil), groups[:hi]...)
	}

	for changed := true; changed; {
		changed = false
		for i := len(kept) - 1; i >= 0; i-- {
			trial := make([]refGroup, 0, len(kept)-1)
			trial = append(trial, kept[:i]...)
			trial = append(trial, kept[i+1:]...)
			if violates(trial) {
				kept = trial
				changed = true
			}
		}
	}

	c := trace.NewLog(l.Meta)
	c.Events = append(c.Events, events(kept)...)
	final, err := x.run(c)
	res.Replays++
	if err != nil {
		return nil, fmt.Errorf("replay: re-recording shrunk trace: %w", err)
	}
	if v, _ := final.Log.Verdict(); v == nil || v.Property != res.Property {
		return nil, fmt.Errorf("replay: shrunk trace lost the %s violation on re-recording", res.Property)
	}
	res.Log = final.Log
	res.FinalEvents = final.Log.Len()
	res.FinalOps = final.Ops
	return res, nil
}

// refShrink is the reference Shrink.
func refShrink(l *trace.Log) (*ShrinkResult, error) {
	res := &ShrinkResult{OriginalEvents: l.Len()}
	x, err := execFor(l)
	if err != nil {
		return nil, err
	}
	v, err := safetyOf(x, l.Events)
	if err != nil {
		return nil, err
	}
	res.Replays++
	res.OriginalOps = x.ops
	if v != nil {
		return refShrinkWith(l, x, refSafetyOracle(v.Property), res)
	}
	for _, mode := range []DriveMode{DriveReliable, DriveAdversarial} {
		o := refLivenessOracle(mode)
		res.Replays++
		if o.holds(x, l.Events) {
			return refShrinkWith(l, x, o, res)
		}
	}
	return nil, fmt.Errorf("replay: trace violates no safety property and strands no message when replayed; nothing to shrink")
}

// refShrinkLiveness is the reference ShrinkLiveness.
func refShrinkLiveness(l *trace.Log, mode DriveMode) (*ShrinkResult, error) {
	res := &ShrinkResult{OriginalEvents: l.Len()}
	x, err := execFor(l)
	if err != nil {
		return nil, err
	}
	v, err := safetyOf(x, l.Events)
	if err != nil {
		return nil, err
	}
	res.Replays++
	res.OriginalOps = x.ops
	if v != nil {
		return nil, fmt.Errorf("replay: trace violates %s; ShrinkLiveness preserves safety-clean DL3 failures only (use Shrink)", v.Property)
	}
	o := refLivenessOracle(mode)
	res.Replays++
	if !o.holds(x, l.Events) {
		return nil, fmt.Errorf("replay: trace does not fail quiescent DL3 under the %s closing drive; nothing to shrink", mode)
	}
	return refShrinkWith(l, x, o, res)
}

// sameShrink fails t unless a shrink's outcome equals the reference's: the
// same error text, or every ShrinkResult field equal, Log bytes included,
// except Replays, which may only be lower.
func sameShrink(t testing.TB, name string, got *ShrinkResult, gerr error, want *ShrinkResult, werr error) {
	t.Helper()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: shrink error %v, reference error %v", name, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(encoded(t, got.Log), encoded(t, want.Log)) || !reflect.DeepEqual(got.Log, want.Log) {
		t.Fatalf("%s: shrunk log\n%v\nreference\n%v", name, got.Log, want.Log)
	}
	if got.Replays > want.Replays {
		t.Fatalf("%s: %d replays, reference %d", name, got.Replays, want.Replays)
	}
	g, w := *got, *want
	g.Log, w.Log, g.Replays, w.Replays = nil, nil, 0, 0
	if g != w {
		t.Fatalf("%s: shrink %+v, reference %+v", name, g, w)
	}
}

// movedDecisionLogs returns variants of l in which one decision event moves
// from its op group to the end of a later group, so the operation that
// consumed it reads a decision recorded after it: a log sim cannot record,
// whose prefixes need not replay as prefixes of its run.
func movedDecisionLogs(l *trace.Log) []*trace.Log {
	var out []*trace.Log
	x := &Exec{}
	x.segment(l.Events)
	n := len(x.bounds) - 1
	for g := 0; g < n && len(out) < 4; g++ {
		for i := x.bounds[g]; i < x.bounds[g+1]; i++ {
			if l.Events[i].Kind != trace.KindDecision {
				continue
			}
			to := x.bounds[min(g+2, n)] // the end of the next group
			m := trace.NewLog(l.Meta)
			m.Events = append(m.Events, l.Events[:i]...)
			m.Events = append(m.Events, l.Events[i+1:to]...)
			m.Events = append(m.Events, l.Events[i])
			m.Events = append(m.Events, l.Events[to:]...)
			out = append(out, m)
			break
		}
	}
	return out
}

// promotedLogs reads testdata/promoted: the logs the first promotion of
// each altbit and cheat1 fuzz campaign at seeds 1–8 shrinks, as
// fuzz.Run(Config{Protocol: p, Workers: 1, Seed: s, StopOnViolation: true})
// re-executes them with a log.
func promotedLogs(t testing.TB) (names []string, logs []*trace.Log) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "promoted", "*.nft"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 16 {
		t.Fatalf("testdata/promoted holds %d logs, want 16", len(paths))
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		l, err := trace.ReadLog(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		names, logs = append(names, filepath.Base(p)), append(logs, l)
	}
	return names, logs
}

// TestShrinkMatchesReference holds Shrink and ShrinkLiveness to the
// reference shrinker — the same results, Log bytes included, in no more
// replays — on TestJudgeMatchesReplay's logs and fixtures, on variants of
// them with a decision moved to a later group (which the classification
// run cannot vouch for, so the prefix pass searches), and on the logs the
// fuzzer's first promotions shrink.
func TestShrinkMatchesReference(t *testing.T) {
	type named struct {
		name string
		l    *trace.Log
	}
	var logs []named
	for i, l := range judgeLogs(t) {
		logs = append(logs, named{fmt.Sprintf("judge log %d (%s)", i, l.Meta[trace.MetaProtocol]), l})
		for k, m := range movedDecisionLogs(l) {
			logs = append(logs, named{fmt.Sprintf("judge log %d (%s) moved decision %d", i, l.Meta[trace.MetaProtocol], k), m})
		}
	}
	names, promoted := promotedLogs(t)
	for i, l := range promoted {
		logs = append(logs, named{"promoted " + names[i], l})
	}

	searched, safety, fewer := 0, 0, 0
	for _, c := range logs {
		got, gerr := Shrink(c.l)
		want, werr := refShrink(c.l)
		sameShrink(t, c.name, got, gerr, want, werr)
		if werr == nil {
			if got.Replays < want.Replays {
				fewer++
			}
			if got.Oracle == "safety" {
				safety++
				x, err := execFor(c.l)
				if err != nil {
					t.Fatal(err)
				}
				if _, prefix, _ := x.classify(c.l); prefix == 0 {
					searched++
				}
			}
		}
		for _, mode := range driveModes {
			got, gerr := ShrinkLiveness(c.l, mode)
			want, werr := refShrinkLiveness(c.l, mode)
			sameShrink(t, fmt.Sprintf("%s ShrinkLiveness %s", c.name, mode), got, gerr, want, werr)
		}
	}
	t.Logf("%d logs: %d safety shrinks, %d of them searched for their prefix; %d shrinks took fewer replays than the reference", len(logs), safety, searched, fewer)
	if searched == 0 || searched == safety || fewer == 0 {
		t.Errorf("%d safety shrinks, %d of them searched for their prefix, %d shrinks took fewer replays: the comparison does not cover both prefix passes and the savings",
			safety, searched, fewer)
	}
}

// TestGreedyJudgesEachCandidateOnce holds greedy to the reference's full
// sweeps over random predicates on the subsets of up to ten groups: the
// same kept list, and no candidate judged twice.
func TestGreedyJudgesEachCandidateOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 2000; k++ {
		n := 1 + rng.Intn(10)
		// A predicate drawn at random per subset (the whole set holds), and
		// biased so that removals happen and interact.
		verdicts := map[uint16]bool{}
		p := 0.3 + 0.6*rng.Float64()
		holds := func(keep []int) bool {
			var set uint16
			for _, g := range keep {
				set |= 1 << g
			}
			v, ok := verdicts[set]
			if !ok {
				v = len(keep) == n || rng.Float64() < p
				verdicts[set] = v
			}
			return v
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		judged := map[string]int{}
		got, _ := greedy(append([]int(nil), all...), nil, func(keep []int) bool {
			judged[fmt.Sprint(keep)]++
			return holds(keep)
		})
		// The reference: sweep the whole kept list until a sweep removes
		// nothing.
		want := append([]int(nil), all...)
		for changed := true; changed; {
			changed = false
			for i := len(want) - 1; i >= 0; i-- {
				trial := append(append([]int(nil), want[:i]...), want[i+1:]...)
				if holds(trial) {
					want, changed = trial, true
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("predicate %d over %d groups: greedy kept %v, full sweeps %v", k, n, got, want)
		}
		for c, times := range judged {
			if times > 1 {
				t.Fatalf("predicate %d over %d groups: candidate %s judged %d times", k, n, c, times)
			}
		}
	}
}

// TestShrinkReusesExec: back-to-back shrinks on one Exec — its op-group
// offsets and candidate lists reused — equal fresh shrinks, Replays
// included, and a log an earlier shrink returned stays as returned; a log
// of another protocol is refused.
func TestShrinkReusesExec(t *testing.T) {
	x := NewExec(replayLookup(t, "altbit"))
	var kept []*trace.Log
	var keptBytes [][]byte
	for i, l := range judgeLogs(t) {
		if l.Meta[trace.MetaProtocol] != "altbit" {
			continue
		}
		for k, m := range append([]*trace.Log{l}, movedDecisionLogs(l)...) {
			name := fmt.Sprintf("judge log %d variant %d", i, k)
			got, gerr := x.Shrink(m)
			want, werr := Shrink(m)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s: reused Exec error %v, fresh error %v", name, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if !bytes.Equal(encoded(t, got.Log), encoded(t, want.Log)) || !reflect.DeepEqual(got.Log, want.Log) {
				t.Fatalf("%s: reused Exec shrank to\n%v\nfresh\n%v", name, got.Log, want.Log)
			}
			g, w := *got, *want
			g.Log, w.Log = nil, nil
			if g != w {
				t.Fatalf("%s: reused Exec %+v, fresh %+v", name, g, w)
			}
			kept, keptBytes = append(kept, got.Log), append(keptBytes, encoded(t, got.Log))
		}
	}
	if len(kept) < 2 {
		t.Fatalf("only %d altbit logs shrank", len(kept))
	}
	for i, l := range kept {
		if !bytes.Equal(encoded(t, l), keptBytes[i]) {
			t.Fatalf("shrunk log %d changed after later shrinks on its Exec", i)
		}
	}
	other := livelockTrace(t, 3)
	if _, err := x.Shrink(other); err == nil {
		t.Fatal("an altbit Exec shrank a livelock trace")
	}
}
