package analyze

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden audit reports")

// goldenConfig pins the enumeration parameters the golden reports were
// produced with; the reports are deterministic functions of these.
var goldenConfig = AuditConfig{Occupancy: 2, MaxStates: 1 << 14}

// TestAuditGolden pins the complete audit report for a representative set of
// protocols: the two finite-state specimens (altbit, livelock), the two
// counting protocols whose control space is finite only under the declared
// ControlKey quotients (cntk4, cntlinear), and the deliberately unbounded
// naive protocol (seqnum). Regenerate with `go test -run TestAuditGolden
// -update ./internal/analyze`.
func TestAuditGolden(t *testing.T) {
	cases := []struct {
		name string
		p    protocol.Protocol
	}{
		{"altbit", protocol.NewAltBit()},
		{"livelock", protocol.NewLivelock()},
		{"cntk4", protocol.NewCntK(4)},
		{"cntlinear", protocol.NewCntLinear()},
		{"seqnum", protocol.NewSeqNum()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Audit(tc.p, goldenConfig).String()
			path := filepath.Join("testdata", "audit", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("audit report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestAuditCertifiesRegistry runs the audit over every registered protocol
// plus the broken specimens and checks the verdict class: nothing in the
// tree may FAIL its own declaration.
func TestAuditCertifiesRegistry(t *testing.T) {
	want := map[string]Verdict{
		"altbit":    VerdictCertified,
		"cntk4":     VerdictCertified,
		"cntlinear": VerdictCertified,
		"cheat1":    VerdictCertified,
		"cntexp":    VerdictConsistent,
		"seqnum":    VerdictConsistent,
		"livelock":  VerdictCertified,
		"cntnobind": VerdictCertified,
		"stabdl2":   VerdictCertified,
		"stabnaive": VerdictCertified,
	}
	reg := protocol.Registry()
	ps := []protocol.Protocol{protocol.NewLivelock(), protocol.NewCntNoBind()}
	for _, name := range protocol.Names() {
		ps = append(ps, reg[name])
	}
	// stabdl2's 8-label alphabet needs ~35k joint states to exhaust, so the
	// registry sweep runs with a larger budget than the pinned goldens.
	sweepConfig := AuditConfig{Occupancy: goldenConfig.Occupancy, MaxStates: 1 << 16}
	for _, p := range ps {
		rep := Audit(p, sweepConfig)
		if rep.Verdict != want[p.Name()] {
			t.Errorf("%s: verdict %s (failures %v), want %s", p.Name(), rep.Verdict, rep.Failures, want[p.Name()])
		}
		if rep.Exhausted && rep.PumpingBound != rep.KT*rep.KR {
			t.Errorf("%s: PumpingBound %d != k_t*k_r = %d*%d", p.Name(), rep.PumpingBound, rep.KT, rep.KR)
		}
	}
}

// fixtureProto is a minimal stop-and-wait protocol for audit tests: the
// transmitter sends header "x" until an "a" ack arrives. leak switches on a
// deliberate state leak — a sent-packet counter folded into the transmitter
// StateKey, unbounded control state the audit must refuse to certify.
type fixtureProto struct {
	name   string
	bounds *protocol.Bounds
	leak   bool
}

func (f *fixtureProto) Name() string             { return f.name }
func (f *fixtureProto) HeaderBound() (int, bool) { return 2, true }
func (f *fixtureProto) Bounds() protocol.Bounds  { return *f.bounds }
func (f *fixtureProto) New(_, _ channel.Genie) (protocol.Transmitter, protocol.Receiver) {
	return &fixtureT{leak: f.leak}, &fixtureR{}
}

// declared returns the protocol as the audit sees it: with a Bounds
// declaration when one is set, as a bare Protocol otherwise.
func (f *fixtureProto) declared() protocol.Protocol {
	if f.bounds == nil {
		return bareProto{f}
	}
	return f
}

// bareProto strips the Bounded implementation (explicit forwarding, not
// embedding, so Bounds does not leak through).
type bareProto struct{ f *fixtureProto }

func (b bareProto) Name() string             { return b.f.name }
func (b bareProto) HeaderBound() (int, bool) { return b.f.HeaderBound() }
func (b bareProto) New(d, a channel.Genie) (protocol.Transmitter, protocol.Receiver) {
	return b.f.New(d, a)
}

type fixtureT struct {
	busy bool
	leak bool
	sent int
}

func (t *fixtureT) SendMsg(string)        { t.busy = true }
func (t *fixtureT) DeliverPkt(ioa.Packet) { t.busy = false }
func (t *fixtureT) Busy() bool            { return t.busy }
func (t *fixtureT) StateSize() int        { return 1 }
func (t *fixtureT) Clone() protocol.Transmitter {
	c := *t
	return &c
}
func (t *fixtureT) NextPkt() (ioa.Packet, bool) {
	if !t.busy {
		return ioa.Packet{}, false
	}
	t.sent++
	return ioa.Packet{Header: "x", Payload: "m"}, true
}
func (t *fixtureT) AppendStateKey(dst []byte) []byte {
	dst = strconv.AppendBool(append(dst, "fixT{busy="...), t.busy)
	if t.leak {
		// The leak: unbounded bookkeeping in the control state.
		dst = strconv.AppendInt(append(dst, " sent="...), int64(t.sent), 10)
	}
	return append(dst, '}')
}

type fixtureR struct {
	delivered []string
	acks      int
}

func (r *fixtureR) DeliverPkt(p ioa.Packet) {
	r.delivered = append(r.delivered, p.Payload)
	r.acks++
}
func (r *fixtureR) NextPkt() (ioa.Packet, bool) {
	if r.acks == 0 {
		return ioa.Packet{}, false
	}
	r.acks--
	return ioa.Packet{Header: "a"}, true
}
func (r *fixtureR) TakeDelivered() []string {
	d := r.delivered
	r.delivered = nil
	return d
}
func (r *fixtureR) StateSize() int { return 1 }
func (r *fixtureR) Clone() protocol.Receiver {
	c := *r
	c.delivered = append([]string(nil), r.delivered...)
	return &c
}
func (r *fixtureR) AppendStateKey(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, "fixR{acks="...), int64(r.acks), 10)
	dst = strconv.AppendInt(append(dst, " pend="...), int64(len(r.delivered)), 10)
	return append(dst, '}')
}

func auditFailures(t *testing.T, rep *AuditReport, substrings ...string) {
	t.Helper()
	if rep.Verdict != VerdictFail {
		t.Fatalf("verdict %s (failures %v), want FAIL", rep.Verdict, rep.Failures)
	}
	joined := strings.Join(rep.Failures, "\n")
	for _, sub := range substrings {
		if !strings.Contains(joined, sub) {
			t.Errorf("failures %v do not mention %q", rep.Failures, sub)
		}
	}
}

// TestAuditFlagsStateLeak: a protocol that declares itself state-bounded but
// folds an unbounded counter into its control state must fail the audit.
func TestAuditFlagsStateLeak(t *testing.T) {
	p := &fixtureProto{name: "leaky", bounds: &protocol.Bounds{StateBounded: true}, leak: true}
	rep := Audit(p, AuditConfig{Occupancy: 2, MaxStates: 256})
	if rep.Exhausted {
		t.Fatalf("leaky protocol exhausted %d states; the leak did not leak", rep.States)
	}
	auditFailures(t, rep, "declared state-bounded but the enumeration exceeded the 256-state budget")
}

// TestAuditFlagsUnderstatedDeclaration: a finite protocol that declares
// itself unbounded is also a contradiction — Theorem 2.1 applies after all.
func TestAuditFlagsUnderstatedDeclaration(t *testing.T) {
	p := &fixtureProto{name: "understated", bounds: &protocol.Bounds{StateBounded: false}}
	rep := Audit(p, goldenConfig)
	if !rep.Exhausted {
		t.Fatalf("fixture protocol did not exhaust (%d states)", rep.States)
	}
	auditFailures(t, rep, "declared state-unbounded but only")
}

// TestAuditFlagsCeilingViolations: declared k_t / k_r / header ceilings
// below the observation each produce a failure.
func TestAuditFlagsCeilingViolations(t *testing.T) {
	p := &fixtureProto{name: "lowceil", bounds: &protocol.Bounds{StateBounded: true, KT: 1, KR: 1, Headers: 1}}
	rep := Audit(p, goldenConfig)
	if !rep.Exhausted {
		t.Fatalf("fixture protocol did not exhaust (%d states)", rep.States)
	}
	auditFailures(t, rep,
		"exceeds declared ceiling 1",
		"distinct headers exceeds declared ceiling 1")
}

// TestAuditObservedWithoutDeclaration: no Bounds declaration means the
// report is informational, not a failure.
func TestAuditObservedWithoutDeclaration(t *testing.T) {
	p := &fixtureProto{name: "plain"}
	rep := Audit(p.declared(), goldenConfig)
	if rep.Verdict != VerdictObserved {
		t.Fatalf("verdict %s, want OBSERVED", rep.Verdict)
	}
	if rep.Declared != nil {
		t.Fatalf("Declared = %+v, want nil", rep.Declared)
	}
}
