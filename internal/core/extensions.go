package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/adversary"
	"repro/internal/bound"
	"repro/internal/channel"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/ioauto"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// --- E2d: the Theorem 3.1 inductive construction, instrumented ---

// E2dRow is one protocol's fate under the instrumented induction.
type E2dRow struct {
	Protocol    string
	Complete    bool
	Accumulated int
	Messages    int
	Broken      bool
}

// E2dResult carries the outcome rows plus the accumulation history of the
// alternating bit run (the proof's P_i sets, growing one header at a time).
type E2dResult struct {
	Rows          []E2dRow
	AltbitHistory []adversary.InductionPhase
}

// RunE2d runs the proof of Theorem 3.1 as an adaptive accumulation: delay
// copies of every not-yet-covered data header until the protocol's whole
// observed alphabet is stranded, then simulate.
func RunE2d(target int) (E2dResult, error) {
	if target == 0 {
		target = 3
	}
	var res E2dResult
	ps := []protocol.Protocol{
		protocol.NewAltBit(),
		protocol.NewCheat(1),
		protocol.NewCntLinear(),
		protocol.NewSeqNum(),
	}
	for _, p := range ps {
		rep, err := adversary.Induction(p, target, 10, adversary.ReplayConfig{MaxDepth: 4 * target})
		if err != nil {
			return res, fmt.Errorf("E2d %s: %w", p.Name(), err)
		}
		res.Rows = append(res.Rows, E2dRow{
			Protocol:    p.Name(),
			Complete:    rep.Complete,
			Accumulated: len(rep.Accumulated),
			Messages:    rep.MessagesUsed,
			Broken:      rep.Replay.Cert != nil,
		})
		if p.Name() == "altbit" {
			res.AltbitHistory = rep.Phases
		}
	}
	return res, nil
}

// Table renders E2d.
func (r E2dResult) Table() *Table {
	t := &Table{
		ID:    "E2d",
		Title: "Theorem 3.1's inductive construction, instrumented",
		Note:  "expected: alphabet accumulation completes for bounded protocols and the simulation breaks the under-counting ones; seqnum's frontier never closes",
		Columns: []string{
			"protocol", "accumulation complete", "headers stranded", "messages used", "broken",
		},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Protocol, row.Complete, row.Accumulated, row.Messages, row.Broken)
	}
	return t
}

// HistoryTable renders the alternating-bit accumulation history: the
// executable form of the proof's growing P_i sets.
func (r E2dResult) HistoryTable() *Table {
	t := &Table{
		ID:      "E2d-history",
		Title:   "accumulation history against altbit (the proof's P_i sets)",
		Note:    "per-header in-transit copies after each message; headers enter P_i as they reach the target",
		Columns: []string{"after message", "in-transit counts", "newly accumulated"},
	}
	for _, ph := range r.AltbitHistory {
		hs := make([]string, 0, len(ph.Counts))
		//nfvet:allow maprange (keys are collected then sorted before use)
		for h := range ph.Counts {
			hs = append(hs, h)
		}
		sort.Strings(hs)
		counts := ""
		for i, h := range hs {
			if i > 0 {
				counts += " "
			}
			counts += fmt.Sprintf("%s×%d", h, ph.Counts[h])
		}
		newly := "-"
		if len(ph.NewHeaders) > 0 {
			newly = fmt.Sprint(ph.NewHeaders)
		}
		t.AddRow(ph.Message, counts, newly)
	}
	return t
}

// --- E7: the transport-layer extension ---

// E7Row is one protocol's outcome under the exhaustive explorer.
type E7Row struct {
	Protocol  string
	HeaderK   int
	Bounded   bool
	Broken    bool
	CexLength int
	States    int
	Exhausted bool
}

// RunE7 realises the paper's closing remark — "all our results can be
// extended to transport layer protocols over non-FIFO virtual links" — by
// running the bounded-exhaustive explorer against sliding window transport
// protocols with finite (mod-S) and unbounded sequence spaces, alongside
// the data link protocols for reference.
func RunE7() ([]E7Row, error) {
	type target struct {
		p   protocol.Protocol
		cfg explore.Config
	}
	targets := []target{
		{transport.New(2, 1), explore.Config{Messages: 3, MaxDataSends: 6, MaxAckSends: 6}},
		{transport.New(3, 1), explore.Config{Messages: 4, MaxDataSends: 8, MaxAckSends: 8}},
		{transport.New(0, 2), explore.Config{Messages: 3, MaxDataSends: 6, MaxAckSends: 6}},
		{transport.NewGoBackN(2, 1), explore.Config{Messages: 3, MaxDataSends: 6, MaxAckSends: 6}},
		{transport.NewGoBackN(0, 2), explore.Config{Messages: 3, MaxDataSends: 6, MaxAckSends: 6}},
		{protocol.NewAltBit(), explore.Config{Messages: 2, MaxDataSends: 4, MaxAckSends: 4}},
		{protocol.NewSeqNum(), explore.Config{Messages: 2, MaxDataSends: 4, MaxAckSends: 4}},
		{protocol.NewCntLinear(), explore.Config{Messages: 2, MaxDataSends: 4, MaxAckSends: 4}},
	}
	var rows []E7Row
	for _, tg := range targets {
		rep, err := explore.Explore(tg.p, tg.cfg)
		if err != nil {
			return rows, fmt.Errorf("E7 %s: %w", tg.p.Name(), err)
		}
		k, bounded := tg.p.HeaderBound()
		row := E7Row{
			Protocol:  tg.p.Name(),
			HeaderK:   k,
			Bounded:   bounded,
			States:    rep.States,
			Exhausted: rep.Exhausted,
		}
		if rep.Violation != nil {
			row.Broken = true
			row.CexLength = len(rep.Counterexample)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E7Table renders E7.
func E7Table(rows []E7Row) *Table {
	t := &Table{
		ID:    "E7",
		Title: "transport layer over non-FIFO virtual links — exhaustive exploration",
		Note:  "expected: every finite sequence space (bounded headers) falls with a shortest counterexample; unbounded variants verify safe over the exhausted bounded space",
		Columns: []string{
			"protocol", "headers", "broken", "shortest cex (events)", "states", "space exhausted",
		},
	}
	for _, r := range rows {
		k := "unbounded"
		if r.Bounded {
			k = fmt.Sprint(r.HeaderK)
		}
		cex := "-"
		if r.Broken {
			cex = fmt.Sprint(r.CexLength)
		}
		t.AddRow(r.Protocol, k, r.Broken, cex, r.States, r.Exhausted)
	}
	return t
}

// --- E8: the FIFO contrast — reordering is the decisive property ---

// E8Row is one (protocol, discipline) exploration outcome.
type E8Row struct {
	Protocol  string
	FIFO      bool
	Broken    bool
	States    int
	Exhausted bool
}

// RunE8 runs the exhaustive explorer over both channel disciplines. The
// paper's lower bounds are specifically about NON-FIFO channels; the
// contrast makes that precise: every unsafe protocol here falls only under
// reordering, and is exhaustively safe over the lossy FIFO channel at the
// same bounds.
func RunE8() ([]E8Row, error) {
	ps := []protocol.Protocol{
		protocol.NewAltBit(),
		protocol.NewCheat(1),
		protocol.NewSeqNum(),
		protocol.NewCntLinear(),
	}
	var rows []E8Row
	for _, p := range ps {
		for _, fifo := range []bool{false, true} {
			rep, err := explore.Explore(p, explore.Config{
				Messages: 3, MaxDataSends: 6, MaxAckSends: 6,
				FIFO: fifo, AllowDrop: fifo,
			})
			if err != nil {
				return rows, fmt.Errorf("E8 %s fifo=%t: %w", p.Name(), fifo, err)
			}
			rows = append(rows, E8Row{
				Protocol:  p.Name(),
				FIFO:      fifo,
				Broken:    rep.Violation != nil,
				States:    rep.States,
				Exhausted: rep.Exhausted,
			})
		}
	}
	return rows, nil
}

// E8Table renders E8.
func E8Table(rows []E8Row) *Table {
	t := &Table{
		ID:    "E8",
		Title: "FIFO vs non-FIFO — reordering is what the lower bounds exploit",
		Note:  "expected: altbit and cheat1 fall only under the non-FIFO discipline; all protocols exhaust safely over lossy FIFO at the same bounds",
		Columns: []string{
			"protocol", "discipline", "broken", "states", "space exhausted",
		},
	}
	for _, r := range rows {
		disc := "non-FIFO"
		if r.FIFO {
			disc = "FIFO+loss"
		}
		t.AddRow(r.Protocol, disc, r.Broken, r.States, r.Exhausted)
	}
	return t
}

// --- E9: design ablations of the counting protocol ---

// ungenied wraps a protocol so that its endpoints get no channel oracle —
// the genie ablation. The endpoint wrappers below deliberately do NOT
// implement the genie-rebinding hooks (protocol.AckGenieUser /
// protocol.DataGenieUser), so the harnesses' fork/clone machinery cannot
// re-attach a live oracle and silently undo the ablation.
type ungenied struct {
	inner protocol.Protocol
}

func (u ungenied) Name() string             { return u.inner.Name() + "-nogenie" }
func (u ungenied) HeaderBound() (int, bool) { return u.inner.HeaderBound() }
func (u ungenied) New(_, _ channel.Genie) (protocol.Transmitter, protocol.Receiver) {
	t, r := u.inner.New(channel.NoGenie{}, channel.NoGenie{})
	return ungeniedT{inner: t}, ungeniedR{inner: r}
}

type ungeniedT struct{ inner protocol.Transmitter }

func (t ungeniedT) SendMsg(payload string)      { t.inner.SendMsg(payload) }
func (t ungeniedT) DeliverPkt(p ioa.Packet)     { t.inner.DeliverPkt(p) }
func (t ungeniedT) NextPkt() (ioa.Packet, bool) { return t.inner.NextPkt() }
func (t ungeniedT) Busy() bool                  { return t.inner.Busy() }
func (t ungeniedT) Clone() protocol.Transmitter {
	return ungeniedT{inner: t.inner.Clone()}
}
func (t ungeniedT) AppendStateKey(dst []byte) []byte { return t.inner.AppendStateKey(dst) }
func (t ungeniedT) StateSize() int                   { return t.inner.StateSize() }

type ungeniedR struct{ inner protocol.Receiver }

func (r ungeniedR) DeliverPkt(p ioa.Packet)     { r.inner.DeliverPkt(p) }
func (r ungeniedR) NextPkt() (ioa.Packet, bool) { return r.inner.NextPkt() }
func (r ungeniedR) TakeDelivered() []string     { return r.inner.TakeDelivered() }
func (r ungeniedR) Clone() protocol.Receiver {
	return ungeniedR{inner: r.inner.Clone()}
}
func (r ungeniedR) AppendStateKey(dst []byte) []byte { return r.inner.AppendStateKey(dst) }
func (r ungeniedR) StateSize() int                   { return r.inner.StateSize() }

// E9Row is one ablation outcome.
type E9Row struct {
	Variant   string
	Ablation  string
	Broken    bool
	CexLength int
	States    int
}

// RunE9 ablates the counting protocol's three load-bearing design choices
// and lets the exhaustive explorer judge each variant:
//
//	cntlinear            — the full protocol (baseline): safe;
//	cheat1               — threshold lowered by one: broken (Theorem 4.1's
//	                       "you must pay the full in-transit count");
//	cntnobind            — per-payload counting pooled: broken (a fresh
//	                       copy can push a stale payload over the line);
//	cntlinear-nogenie    — stale oracle removed (threshold always 0):
//	                       broken (the protocol degenerates to accept-first,
//	                       the alternating-bit failure mode).
func RunE9() ([]E9Row, error) {
	type variant struct {
		p        protocol.Protocol
		ablation string
	}
	variants := []variant{
		{protocol.NewCntLinear(), "none (baseline)"},
		{protocol.NewCheat(1), "threshold − 1"},
		{protocol.NewCntNoBind(), "payload binding off"},
		{ungenied{inner: protocol.NewCntLinear()}, "stale oracle off"},
	}
	var rows []E9Row
	for _, v := range variants {
		rep, err := explore.Explore(v.p, explore.Config{
			Messages: 3, MaxDataSends: 6, MaxAckSends: 6,
		})
		if err != nil {
			return rows, fmt.Errorf("E9 %s: %w", v.p.Name(), err)
		}
		row := E9Row{Variant: v.p.Name(), Ablation: v.ablation, States: rep.States}
		if rep.Violation != nil {
			row.Broken = true
			row.CexLength = len(rep.Counterexample)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E9Table renders E9.
func E9Table(rows []E9Row) *Table {
	t := &Table{
		ID:    "E9",
		Title: "counting-protocol ablations under exhaustive exploration",
		Note:  "expected: the baseline survives; removing any one design ingredient (full threshold, payload binding, stale oracle) yields a counterexample",
		Columns: []string{
			"variant", "ablation", "broken", "shortest cex (events)", "states",
		},
	}
	for _, r := range rows {
		cex := "-"
		if r.Broken {
			cex = fmt.Sprint(r.CexLength)
		}
		t.AddRow(r.Variant, r.Ablation, r.Broken, cex, r.States)
	}
	return t
}

// --- E10: Theorem 4.1's 1/k factor ---

// E10Row is one (K, L) measurement.
type E10Row struct {
	Protocol  string
	K         int // header-alphabet parameter (2K headers)
	Level     int // total stale packets spread over the headers
	PerHeader int // stale copies per data header
	Cost      int // closing cost of the next message
}

// RunE10 sweeps the counting protocol's header count K at a fixed total of
// L stale packets spread evenly over the K data headers, and measures the
// packets needed for the next message. Theorem 4.1's bound is ⌊l/k⌋: the
// measured cost follows L/K + 1, tracing the 1/k factor directly and
// interpolating between the alternating counting protocol (K = 2) and the
// naive protocol's O(1) (K → n).
func RunE10(level int, ks []int) ([]E10Row, error) {
	if level == 0 {
		level = 64
	}
	if len(ks) == 0 {
		ks = []int{2, 4, 8, 16}
	}
	var rows []E10Row
	for _, k := range ks {
		per := level / k
		p := protocol.NewCntK(k)
		r := sim.NewRunner(sim.Config{
			Protocol:   p,
			DataPolicy: channel.DelayPerHeader(per),
			StepBudget: budget,
		})
		// K messages strand `per` copies of each of the K data headers.
		for i := 0; i < k; i++ {
			if err := r.RunMessage(fmt.Sprintf("m%d", i)); err != nil {
				return rows, fmt.Errorf("E10 k=%d setup: %w", k, err)
			}
		}
		r.SetPolicies(channel.Reliable(), channel.Reliable())
		r.SubmitMsg("probe")
		cost, err := bound.ClosingCost(r, budget)
		if err != nil {
			return rows, fmt.Errorf("E10 k=%d closing: %w", k, err)
		}
		rows = append(rows, E10Row{
			Protocol:  p.Name(),
			K:         k,
			Level:     per * k,
			PerHeader: per,
			Cost:      cost,
		})
	}
	// The naive protocol as the K → n limit.
	r, err := bound.BuildInTransit(protocol.NewSeqNum(), level, budget)
	if err != nil {
		return rows, fmt.Errorf("E10 seqnum: %w", err)
	}
	r.SubmitMsg("probe")
	cost, err := bound.ClosingCost(r, budget)
	if err != nil {
		return rows, fmt.Errorf("E10 seqnum closing: %w", err)
	}
	rows = append(rows, E10Row{Protocol: "seqnum", K: 0, Level: level, Cost: cost})
	return rows, nil
}

// E10Table renders E10.
func E10Table(rows []E10Row) *Table {
	t := &Table{
		ID:    "E10",
		Title: "Theorem 4.1's 1/k factor — cost vs header count at fixed stale total L",
		Note:  "expected: cost ≈ L/K + 1 (the theorem's ⌊l/k⌋, measured); seqnum is the K→n limit at O(1)",
		Columns: []string{
			"protocol", "headers 2K", "stale total L", "stale per header", "closing cost", "L/K + 1",
		},
	}
	for _, r := range rows {
		if r.K == 0 {
			t.AddRow(r.Protocol, "unbounded", r.Level, "-", r.Cost, "-")
			continue
		}
		t.AddRow(r.Protocol, 2*r.K, r.Level, r.PerHeader, r.Cost, r.PerHeader+1)
	}
	return t
}

// --- E11: Theorem 5.1's internals — the m_{i,j} trajectories ---

// E11Series is one q's dominant-packet trajectory.
type E11Series struct {
	Q float64
	// MaxInTransit[i] is the largest per-header in-transit count after
	// message i — the paper's m_{i,j} for the dominant packet p_j.
	MaxInTransit []float64
	// Rate is the fitted per-phase geometric growth of the dominant
	// count (compare 1/(1−q) and the paper's 1+q).
	Rate float64
	R2   float64
}

// RunE11 measures the quantity the proof of Theorem 5.1 actually tracks:
// the number of in-transit copies m_{i,j} of the dominant packet, message
// by message, under the probabilistic physical layer. Lemma 5.3's claim is
// that m grows geometrically at ≈ (1+q−ε) per dominant phase; our counting
// protocol realises the recurrence m ← m + q·(m+1)/(1−q), i.e. growth at
// 1/(1−q) ≥ 1+q per same-header phase.
func RunE11(qs []float64, n, seeds int) ([]E11Series, error) {
	if len(qs) == 0 {
		qs = []float64{0.1, 0.25, 0.5}
	}
	if n == 0 {
		n = 24
	}
	if seeds == 0 {
		seeds = 5
	}
	var out []E11Series
	for _, q := range qs {
		sums := make([]float64, n)
		for seed := 0; seed < seeds; seed++ {
			r := sim.NewRunner(sim.Config{
				Protocol:   protocol.NewCntLinear(),
				DataPolicy: channel.Probabilistic(q, rand.New(rand.NewSource(SplitSeed(int64(seed), fmt.Sprintf("E11/q=%g", q))))),
				StepBudget: budget,
			})
			for i := 0; i < n; i++ {
				if err := r.RunMessage("m"); err != nil {
					return out, fmt.Errorf("E11 q=%.2f msg %d: %w", q, i, err)
				}
				m := r.ChData.CountHeader("c0")
				if c1 := r.ChData.CountHeader("c1"); c1 > m {
					m = c1
				}
				sums[i] += float64(m)
			}
		}
		s := E11Series{Q: q}
		var xs, ys []float64
		for i := range sums {
			mean := sums[i] / float64(seeds)
			s.MaxInTransit = append(s.MaxInTransit, mean)
			// Fit only the tail (the recurrence needs a seeded pool) and
			// only positive values.
			if i >= n/3 && mean > 0 {
				xs = append(xs, float64(i))
				ys = append(ys, mean)
			}
		}
		rate, fit, err := stats.GrowthRate(xs, ys)
		if err != nil {
			return out, fmt.Errorf("E11 fit q=%.2f: %w", q, err)
		}
		// rate is per message; per same-header phase it is rate².
		s.Rate = rate * rate
		s.R2 = fit.R2
		out = append(out, s)
	}
	return out, nil
}

// E11Table renders E11.
func E11Table(rows []E11Series, n int) *Table {
	t := &Table{
		ID:    "E11",
		Title: "Theorem 5.1 internals — dominant-packet in-transit trajectories m_{i,j}",
		Note:  "expected: the dominant count grows geometrically per same-header phase at ≈ 1/(1−q) ≥ 1+q (Lemma 5.3's mechanism)",
		Columns: []string{
			"q", "m after n/3", "m after 2n/3", "m after n", "fitted phase rate", "1+q", "1/(1−q)", "R²",
		},
	}
	for _, s := range rows {
		m := s.MaxInTransit
		t.AddRow(s.Q, m[len(m)/3], m[2*len(m)/3], m[len(m)-1], s.Rate, 1+s.Q, 1/(1-s.Q), s.R2)
	}
	return t
}

// --- E12: three formalisms, one verdict ---

// E12Row is one (system, formalism, discipline) verdict.
type E12Row struct {
	System     string
	Formalism  string // "endpoints" (explore) or "automata" (ioauto)
	Discipline string // "non-FIFO" or "FIFO"
	Broken     bool
	States     int
}

// RunE12 checks that the two exhaustive formulations — the concrete
// endpoint explorer and the [LT87] I/O automaton reachability — return the
// same verdict for the two boundary protocols under both channel
// disciplines. (The third formulation, the specification automata of
// internal/spec, re-checks every counterexample trace; adversary
// certificates run through it in Recheck.)
func RunE12() ([]E12Row, error) {
	var rows []E12Row

	type sys struct {
		name string
		conc protocol.Protocol
		aut  func(k ioauto.ChannelKind) (ioauto.Automaton, error)
	}
	systems := []sys{
		{"altbit", protocol.NewAltBit(), func(k ioauto.ChannelKind) (ioauto.Automaton, error) {
			return ioauto.NewAltBitSystem(k, 2, 2)
		}},
		{"seqnum", protocol.NewSeqNum(), func(k ioauto.ChannelKind) (ioauto.Automaton, error) {
			return ioauto.NewSeqNumSystem(k, 2, 2)
		}},
	}
	for _, s := range systems {
		for _, fifo := range []bool{false, true} {
			disc := "non-FIFO"
			kind := ioauto.NonFIFOKind
			if fifo {
				disc = "FIFO"
				kind = ioauto.FIFOKind
			}
			exp, err := explore.Explore(s.conc, explore.Config{
				Messages: 2, MaxDataSends: 4, MaxAckSends: 4,
				FIFO: fifo, AllowDrop: fifo, ConstantPayload: true,
			})
			if err != nil {
				return rows, fmt.Errorf("E12 explore %s/%s: %w", s.name, disc, err)
			}
			rows = append(rows, E12Row{
				System: s.name, Formalism: "endpoints", Discipline: disc,
				Broken: exp.Violation != nil, States: exp.States,
			})
			a, err := s.aut(kind)
			if err != nil {
				return rows, fmt.Errorf("E12 automata %s/%s: %w", s.name, disc, err)
			}
			res, err := ioauto.Reach(a, ioauto.Violated, 1<<22)
			if err != nil {
				return rows, fmt.Errorf("E12 reach %s/%s: %w", s.name, disc, err)
			}
			rows = append(rows, E12Row{
				System: s.name, Formalism: "automata", Discipline: disc,
				Broken: res.Found != nil, States: res.States,
			})
		}
	}
	return rows, nil
}

// E12Table renders E12.
func E12Table(rows []E12Row) *Table {
	t := &Table{
		ID:    "E12",
		Title: "cross-validation — concrete endpoints vs the [LT87] automaton formalism",
		Note:  "expected: both exhaustive formulations agree on every (system, discipline) verdict",
		Columns: []string{
			"system", "formalism", "discipline", "broken", "states",
		},
	}
	for _, r := range rows {
		t.AddRow(r.System, r.Formalism, r.Discipline, r.Broken, r.States)
	}
	return t
}
