package analyze

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/channel"
	"repro/internal/intern"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

// This file is Part B of the tooling layer: the static boundness auditor.
//
// The audit exhaustively enumerates the joint control configurations
// (q_t, q_r, c^{t→r}, c^{r→t}) a protocol can reach when each channel holds
// at most Occupancy in-transit packets, and reports
//
//	k_t — distinct transmitter control states observed,
//	k_r — distinct receiver control states observed,
//	h   — distinct packet headers ever sent,
//
// the quantities the paper's theorems are phrased in: Theorem 2.1 pumps any
// execution of a k_t/k_r-bounded protocol once it exceeds the k_t·k_r joint
// control states, and Theorems 3.1/4.1 presuppose a fixed h-letter header
// alphabet. The verdict checks the observation against the protocol's
// declared protocol.Bounds: a declared-bounded protocol must reach a
// fixpoint within the state budget (and respect its declared ceilings); a
// declared-unbounded protocol must not — either contradiction fails the
// audit.
//
// Conventions of the enumeration (the quotient that makes it finite for the
// genuinely finite protocols):
//
//   - Messages are submitted only when the transmitter is idle, and all
//     payloads are the constant "m" — the paper's "all messages identical"
//     convention: DL1 violations need distinguishable payloads, but
//     boundness is a control-space property.
//   - Endpoint states are compared by ControlKey (protocol.ControlKeyOf),
//     letting protocols quotient away bookkeeping that provably never
//     influences behavior (metrics counters, phase counters read mod k).
//   - Receiver acknowledgements are drained eagerly: after every data
//     delivery, pending acks are forwarded to the r→t channel immediately,
//     and acks beyond the occupancy cap are dropped at send (a legal lossy
//     behavior). This pins the receiver's internal ack queue to length
//     zero in every snapshotted configuration.
//   - Deliveries and drops are explored per distinct in-transit packet;
//     sends beyond a channel's occupancy cap are not explored (the
//     adversary that refuses to buffer more than Occupancy packets).

// AuditConfig bounds the enumeration.
type AuditConfig struct {
	// Occupancy caps the in-transit packets per channel. Default 2 — the
	// smallest cap that exercises stale-copy counting (one stale copy plus
	// one fresh copy in transit together).
	Occupancy int
	// MaxStates is the state budget: the audit stops (non-exhausted) when
	// the number of distinct joint configurations reaches it. Default 65536.
	MaxStates int
}

func (c AuditConfig) withDefaults() AuditConfig {
	if c.Occupancy <= 0 {
		c.Occupancy = 2
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 1 << 16
	}
	return c
}

// Verdict is the audit's conclusion for one protocol.
type Verdict string

const (
	// VerdictCertified: declared state-bounded, the enumeration reached a
	// fixpoint within budget, and every declared ceiling holds.
	VerdictCertified Verdict = "CERTIFIED"
	// VerdictConsistent: declared state-unbounded and the enumeration
	// indeed exceeded the budget (finiteness cannot be refuted by
	// enumeration, only corroborated).
	VerdictConsistent Verdict = "CONSISTENT"
	// VerdictObserved: the protocol declares no bounds; the report is
	// informational.
	VerdictObserved Verdict = "OBSERVED"
	// VerdictFail: the observation contradicts the declaration.
	VerdictFail Verdict = "FAIL"
)

// AuditReport is the result of auditing one protocol.
type AuditReport struct {
	Protocol  string
	Occupancy int
	MaxStates int

	// States is the number of distinct joint configurations enumerated;
	// Exhausted reports whether that is all of them (fixpoint) or the
	// budget cut the enumeration off.
	States    int
	Exhausted bool

	// KT and KR are the distinct transmitter/receiver control states
	// observed; Headers the distinct packet headers sent (sorted).
	KT, KR  int
	Headers []string

	// PumpingBound is k_t·k_r when the enumeration exhausted — the joint
	// control-state count Theorem 2.1's adversary needs to exceed to force
	// a repeated pair. Zero when the space was not exhausted.
	PumpingBound int

	// Declared is the protocol's Bounds declaration, if any.
	Declared    *protocol.Bounds
	Verdict     Verdict
	Failures    []string
	HeaderBound int
	HeaderBd    bool
}

// auditState is one joint configuration of the enumeration.
type auditState struct {
	t      protocol.Transmitter
	r      protocol.Receiver
	chData *channel.NonFIFO // t→r
	chAck  *channel.NonFIFO // r→t
}

// clone deep-copies the configuration, rebinding the endpoints' genies to
// the cloned channels (the same rebinding discipline as sim.Runner.Fork).
func (s *auditState) clone() *auditState {
	ns := &auditState{
		t:      s.t.Clone(),
		r:      s.r.Clone(),
		chData: s.chData.Clone(),
		chAck:  s.chAck.Clone(),
	}
	protocol.BindGenies(ns.t, ns.r, ns.chData, ns.chAck)
	return ns
}

// auditKey is the packed joint-configuration key the enumeration dedups
// on: the two control keys and two channel keys interned to dense ids.
// Component-wise interned equality is exactly component-wise string
// equality (interning is injective), so the quotient is the same one the
// concatenated string key used to induce — at a 16-byte comparable probe
// instead of a fresh string build per visit.
type auditKey struct {
	tc, rc, dk, ak uint32
}

// auditor carries the enumeration's accumulators.
type auditor struct {
	cfg     AuditConfig
	tab     *intern.Local
	kbuf    []byte
	seen    map[auditKey]struct{}
	queue   []*auditState
	kt, kr  map[uint32]struct{}
	headers map[string]struct{}
}

// visit records a configuration and enqueues it if new.
func (a *auditor) visit(s *auditState) {
	b := protocol.AppendControlKeyOf(a.kbuf[:0], s.t)
	k := auditKey{tc: a.tab.InternBytes(b)}
	m := len(b)
	b = protocol.AppendControlKeyOf(b, s.r)
	k.rc = a.tab.InternBytes(b[m:])
	m = len(b)
	b = s.chData.AppendKey(b)
	k.dk = a.tab.InternBytes(b[m:])
	m = len(b)
	b = s.chAck.AppendKey(b)
	k.ak = a.tab.InternBytes(b[m:])
	a.kbuf = b
	if _, ok := a.seen[k]; ok {
		return
	}
	a.seen[k] = struct{}{}
	a.kt[k.tc] = struct{}{}
	a.kr[k.rc] = struct{}{}
	a.queue = append(a.queue, s)
}

// drainAcks forwards the receiver's pending acknowledgements to the r→t
// channel, dropping at send beyond the occupancy cap.
func (a *auditor) drainAcks(s *auditState) {
	for {
		pkt, ok := s.r.NextPkt()
		if !ok {
			return
		}
		a.headers[pkt.Header] = struct{}{}
		if s.chAck.InTransit() < a.cfg.Occupancy {
			s.chAck.Send(pkt)
		}
	}
}

// expand enumerates the successors of one configuration.
func (a *auditor) expand(s *auditState) {
	// submit: hand the transmitter a message, only when it is idle.
	if !s.t.Busy() {
		ns := s.clone()
		ns.t.SendMsg("m")
		a.visit(ns)
	}

	// transmit: one send_pkt^{t→r}, if enabled and the channel has room.
	if s.chData.InTransit() < a.cfg.Occupancy {
		ns := s.clone()
		if pkt, ok := ns.t.NextPkt(); ok {
			a.headers[pkt.Header] = struct{}{}
			ns.chData.Send(pkt)
			a.visit(ns)
		}
	}

	// deliver-data: each distinct in-transit data packet, removed from the
	// channel before the receiver sees it (so genie snapshots observe the
	// post-delivery transit), with delivered payloads and acks drained.
	for _, pkt := range s.chData.Packets() {
		ns := s.clone()
		if err := ns.chData.Deliver(pkt); err != nil {
			continue
		}
		ns.r.DeliverPkt(pkt)
		ns.r.TakeDelivered()
		a.drainAcks(ns)
		a.visit(ns)
	}

	// deliver-ack: each distinct in-transit ack packet.
	for _, pkt := range s.chAck.Packets() {
		ns := s.clone()
		if err := ns.chAck.Deliver(pkt); err != nil {
			continue
		}
		ns.t.DeliverPkt(pkt)
		a.visit(ns)
	}

	// drop: each distinct in-transit packet, on either channel.
	for _, pkt := range s.chData.Packets() {
		ns := s.clone()
		if ns.chData.Drop(pkt) == nil {
			a.visit(ns)
		}
	}
	for _, pkt := range s.chAck.Packets() {
		ns := s.clone()
		if ns.chAck.Drop(pkt) == nil {
			a.visit(ns)
		}
	}
}

// Audit enumerates the protocol's reachable joint control space under the
// configuration's bounds and returns the report.
func Audit(p protocol.Protocol, cfg AuditConfig) *AuditReport {
	cfg = cfg.withDefaults()
	a := &auditor{
		cfg:     cfg,
		tab:     intern.NewLocal(),
		seen:    make(map[auditKey]struct{}),
		kt:      make(map[uint32]struct{}),
		kr:      make(map[uint32]struct{}),
		headers: make(map[string]struct{}),
	}

	init := &auditState{
		chData: channel.NewNonFIFO(ioa.TtoR),
		chAck:  channel.NewNonFIFO(ioa.RtoT),
	}
	init.t, init.r = p.New(
		channel.ChannelGenie{Ch: init.chData},
		channel.ChannelGenie{Ch: init.chAck},
	)
	a.visit(init)

	exhausted := true
	for head := 0; head < len(a.queue); head++ {
		if len(a.seen) >= cfg.MaxStates {
			exhausted = false
			break
		}
		a.expand(a.queue[head])
	}

	report := &AuditReport{
		Protocol:  p.Name(),
		Occupancy: cfg.Occupancy,
		MaxStates: cfg.MaxStates,
		States:    len(a.seen),
		Exhausted: exhausted,
		KT:        len(a.kt),
		KR:        len(a.kr),
		Headers:   sortedKeys(a.headers),
	}
	report.HeaderBound, report.HeaderBd = p.HeaderBound()
	if exhausted {
		report.PumpingBound = report.KT * report.KR
	}
	judge(report, p)
	return report
}

// judge fills in the verdict by checking the observation against the
// protocol's declaration.
func judge(rep *AuditReport, p protocol.Protocol) {
	if rep.HeaderBd && len(rep.Headers) > rep.HeaderBound {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"observed %d distinct headers, exceeding HeaderBound %d",
			len(rep.Headers), rep.HeaderBound))
	}

	b, ok := p.(protocol.Bounded)
	if !ok {
		rep.Verdict = VerdictObserved
		if len(rep.Failures) > 0 {
			rep.Verdict = VerdictFail
		}
		return
	}
	decl := b.Bounds()
	rep.Declared = &decl

	switch {
	case decl.StateBounded && !rep.Exhausted:
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"declared state-bounded but the enumeration exceeded the %d-state budget: control state leaks",
			rep.MaxStates))
	case !decl.StateBounded && rep.Exhausted:
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"declared state-unbounded but only %d joint states are reachable: the declaration understates the protocol (Theorem 2.1 would apply)",
			rep.States))
	}
	if decl.StateBounded && rep.Exhausted {
		if decl.KT > 0 && rep.KT > decl.KT {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"observed k_t=%d exceeds declared ceiling %d", rep.KT, decl.KT))
		}
		if decl.KR > 0 && rep.KR > decl.KR {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"observed k_r=%d exceeds declared ceiling %d", rep.KR, decl.KR))
		}
	}
	if decl.Headers > 0 && len(rep.Headers) > decl.Headers {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"observed %d distinct headers exceeds declared ceiling %d",
			len(rep.Headers), decl.Headers))
	}

	switch {
	case len(rep.Failures) > 0:
		rep.Verdict = VerdictFail
	case decl.StateBounded:
		rep.Verdict = VerdictCertified
	default:
		rep.Verdict = VerdictConsistent
	}
}

// JSON renders the report as a machine-readable artifact, the audit
// counterpart of verify.Report.JSON.
func (r *AuditReport) JSON() ([]byte, error) {
	payload := struct {
		Protocol      string           `json:"protocol"`
		Occupancy     int              `json:"occupancy"`
		MaxStates     int              `json:"maxStates"`
		States        int              `json:"states"`
		Exhausted     bool             `json:"exhausted"`
		KT            int              `json:"kt"`
		KR            int              `json:"kr"`
		Headers       []string         `json:"headers,omitempty"`
		PumpingBound  int              `json:"pumpingBound,omitempty"`
		Declared      *protocol.Bounds `json:"declared,omitempty"`
		Verdict       Verdict          `json:"verdict"`
		Failures      []string         `json:"failures,omitempty"`
		HeaderBound   int              `json:"headerBound,omitempty"`
		HeaderBounded bool             `json:"headerBounded,omitempty"`
	}{
		Protocol:      r.Protocol,
		Occupancy:     r.Occupancy,
		MaxStates:     r.MaxStates,
		States:        r.States,
		Exhausted:     r.Exhausted,
		KT:            r.KT,
		KR:            r.KR,
		Headers:       r.Headers,
		PumpingBound:  r.PumpingBound,
		Declared:      r.Declared,
		Verdict:       r.Verdict,
		Failures:      r.Failures,
		HeaderBound:   r.HeaderBound,
		HeaderBounded: r.HeaderBd,
	}
	return json.MarshalIndent(payload, "", "  ")
}

// String renders the report in the fixed layout the golden tests pin down.
func (r *AuditReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol:  %s\n", r.Protocol)
	fmt.Fprintf(&b, "occupancy: %d\n", r.Occupancy)
	if r.Exhausted {
		fmt.Fprintf(&b, "states:    %d (exhausted)\n", r.States)
	} else {
		fmt.Fprintf(&b, "states:    %d (budget %d hit)\n", r.States, r.MaxStates)
	}
	fmt.Fprintf(&b, "k_t:       %d\n", r.KT)
	fmt.Fprintf(&b, "k_r:       %d\n", r.KR)
	fmt.Fprintf(&b, "headers:   %d [%s]\n", len(r.Headers), strings.Join(r.Headers, " "))
	if r.Exhausted {
		fmt.Fprintf(&b, "k_t*k_r:   %d\n", r.PumpingBound)
	}
	if r.HeaderBd {
		fmt.Fprintf(&b, "alphabet:  %d (bounded)\n", r.HeaderBound)
	} else {
		fmt.Fprintf(&b, "alphabet:  unbounded\n")
	}
	if r.Declared != nil {
		fmt.Fprintf(&b, "declared:  %s", boundedWord(r.Declared.StateBounded))
		if r.Declared.KT > 0 || r.Declared.KR > 0 || r.Declared.Headers > 0 {
			var caps []string
			if r.Declared.KT > 0 {
				caps = append(caps, fmt.Sprintf("k_t<=%d", r.Declared.KT))
			}
			if r.Declared.KR > 0 {
				caps = append(caps, fmt.Sprintf("k_r<=%d", r.Declared.KR))
			}
			if r.Declared.Headers > 0 {
				caps = append(caps, fmt.Sprintf("headers<=%d", r.Declared.Headers))
			}
			fmt.Fprintf(&b, " (%s)", strings.Join(caps, ", "))
		}
		b.WriteByte('\n')
	} else {
		fmt.Fprintf(&b, "declared:  (none)\n")
	}
	fmt.Fprintf(&b, "verdict:   %s\n", r.Verdict)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  fail:    %s\n", f)
	}
	return b.String()
}

func boundedWord(b bool) string {
	if b {
		return "state-bounded"
	}
	return "state-unbounded"
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	//nfvet:allow maprange (keys are collected then sorted before use)
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
