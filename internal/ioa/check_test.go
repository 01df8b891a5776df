package ioa

import (
	"strings"
	"testing"
	"testing/quick"
)

func msg(id int) Message { return Message{ID: id, Payload: "x"} }

func pkt(h string) Packet { return Packet{Header: h} }

func sendM(id int) Event    { return Event{Kind: SendMsg, Msg: msg(id)} }
func recvM(id int) Event    { return Event{Kind: ReceiveMsg, Msg: msg(id)} }
func sendP(h string) Event  { return Event{Kind: SendPkt, Dir: TtoR, Pkt: pkt(h)} }
func recvP(h string) Event  { return Event{Kind: ReceivePkt, Dir: TtoR, Pkt: pkt(h)} }
func sendPR(h string) Event { return Event{Kind: SendPkt, Dir: RtoT, Pkt: pkt(h)} }
func recvPR(h string) Event { return Event{Kind: ReceivePkt, Dir: RtoT, Pkt: pkt(h)} }

func TestCountersDefinition2(t *testing.T) {
	tr := Trace{sendM(0), sendP("d0"), recvP("d0"), recvM(0), sendPR("a0"), recvPR("a0")}
	c := tr.Count()
	if c.SM != 1 || c.RM != 1 || c.SPtoR != 1 || c.RPtoR != 1 || c.SPtoT != 1 || c.RPtoT != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.InTransit(TtoR) != 0 || c.InTransit(RtoT) != 0 {
		t.Fatalf("in-transit = %d,%d", c.InTransit(TtoR), c.InTransit(RtoT))
	}
}

func TestInTransit(t *testing.T) {
	tr := Trace{sendP("d0"), sendP("d0"), sendP("d1"), recvP("d0")}
	if got := tr.Count().InTransit(TtoR); got != 2 {
		t.Fatalf("InTransit = %d, want 2", got)
	}
}

func TestPL1OK(t *testing.T) {
	tr := Trace{sendP("a"), sendP("a"), recvP("a"), recvP("a")}
	if err := CheckPL1(tr, TtoR); err != nil {
		t.Fatalf("PL1 should hold: %v", err)
	}
}

func TestPL1ReceiveWithoutSend(t *testing.T) {
	tr := Trace{recvP("a")}
	err := CheckPL1(tr, TtoR)
	if err == nil {
		t.Fatal("PL1 should fail: receive without send")
	}
	v, ok := AsViolation(err)
	if !ok || v.Property != "PL1" || v.Index != 0 {
		t.Fatalf("violation = %+v", v)
	}
}

func TestPL1Duplication(t *testing.T) {
	tr := Trace{sendP("a"), recvP("a"), recvP("a")}
	err := CheckPL1(tr, TtoR)
	if err == nil {
		t.Fatal("PL1 should fail: one send matched by two receives")
	}
	if v, _ := AsViolation(err); v.Index != 2 {
		t.Fatalf("violation index = %d, want 2", v.Index)
	}
}

func TestPL1IgnoresOtherDirection(t *testing.T) {
	tr := Trace{recvPR("a")}
	if err := CheckPL1(tr, TtoR); err != nil {
		t.Fatalf("PL1 on t→r should ignore r→t events: %v", err)
	}
	if err := CheckPL1(tr, RtoT); err == nil {
		t.Fatal("PL1 on r→t should fail")
	}
}

func TestPL1DistinguishesPayloads(t *testing.T) {
	tr := Trace{
		{Kind: SendPkt, Dir: TtoR, Pkt: Packet{Header: "h", Payload: "p1"}},
		{Kind: ReceivePkt, Dir: TtoR, Pkt: Packet{Header: "h", Payload: "p2"}},
	}
	if err := CheckPL1(tr, TtoR); err == nil {
		t.Fatal("PL1 must compare full packet value, including payload")
	}
}

func TestDL1OK(t *testing.T) {
	tr := Trace{sendM(0), recvM(0), sendM(1), recvM(1)}
	if err := CheckDL1(tr); err != nil {
		t.Fatalf("DL1 should hold: %v", err)
	}
}

func TestDL1DuplicateDelivery(t *testing.T) {
	tr := Trace{sendM(0), recvM(0), recvM(0)}
	err := CheckDL1(tr)
	if err == nil {
		t.Fatal("DL1 should fail on duplicate delivery")
	}
	v, _ := AsViolation(err)
	if v.Property != "DL1" || v.Index != 2 {
		t.Fatalf("violation = %+v", v)
	}
}

func TestDL1SpuriousDelivery(t *testing.T) {
	tr := Trace{sendM(0), recvM(1)}
	if err := CheckDL1(tr); err == nil {
		t.Fatal("DL1 should fail on delivery of a never-sent message")
	}
}

func TestDL1DeliveryBeforeSend(t *testing.T) {
	tr := Trace{recvM(0), sendM(0)}
	if err := CheckDL1(tr); err == nil {
		t.Fatal("DL1 requires the send to precede the receive")
	}
}

func TestDL1PayloadCorruption(t *testing.T) {
	tr := Trace{
		{Kind: SendMsg, Msg: Message{ID: 0, Payload: "hello"}},
		{Kind: ReceiveMsg, Msg: Message{ID: 0, Payload: "mangled"}},
	}
	if err := CheckDL1(tr); err == nil {
		t.Fatal("DL1 should fail on payload corruption")
	}
}

func TestDL2OK(t *testing.T) {
	tr := Trace{sendM(0), sendM(1), recvM(0), recvM(1)}
	if err := CheckDL2(tr); err != nil {
		t.Fatalf("DL2 should hold: %v", err)
	}
}

func TestDL2Reorder(t *testing.T) {
	tr := Trace{sendM(0), sendM(1), recvM(1), recvM(0)}
	err := CheckDL2(tr)
	if err == nil {
		t.Fatal("DL2 should fail on reordered delivery")
	}
	v, _ := AsViolation(err)
	if v.Property != "DL2" || v.Index != 3 {
		t.Fatalf("violation = %+v", v)
	}
}

func TestDL2GapsAllowed(t *testing.T) {
	// DL2 alone does not require delivery of every message — only order.
	tr := Trace{sendM(0), sendM(1), sendM(2), recvM(0), recvM(2)}
	if err := CheckDL2(tr); err != nil {
		t.Fatalf("DL2 permits gaps (DL3 is separate): %v", err)
	}
}

func TestDL3Quiescent(t *testing.T) {
	tests := []struct {
		name   string
		tr     Trace
		fails  bool
		detail string // required substring of the violation detail
	}{
		{"empty trace", Trace{}, false, ""},
		{"all delivered", Trace{sendM(0), recvM(0), sendM(1), recvM(1)}, false, ""},
		{"single strand", Trace{sendM(0)}, true, "1 of 1"},
		// Duplicate deliveries of message 0 must not mask message 1's strand:
		// rm >= sm holds (3 >= 2), so a count comparison would pass, but
		// message 1 has no matching delivery.
		{"duplicate masks strand",
			Trace{sendM(0), recvM(0), recvM(0), sendM(1)}, true, "stranded id 1"},
		// A delivery whose payload differs from the send is DL1's problem and
		// matches nothing here: the send stays stranded.
		{"corrupted delivery does not match",
			Trace{sendM(0), Event{Kind: ReceiveMsg, Msg: Message{ID: 0, Payload: "y"}}},
			true, "stranded id 0"},
		// Send after quiescence: a delivery cannot match a *later* send, so a
		// trace that goes quiescent and then accepts one more message fails.
		{"send after quiescence", Trace{recvM(0), sendM(0)}, true, "stranded id 0"},
		{"interleaved strands",
			Trace{sendM(0), sendM(1), recvM(1), sendM(2)}, true, "2 of 3"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckDL3Quiescent(tc.tr)
			if !tc.fails {
				if err != nil {
					t.Fatalf("DL3 should hold: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("DL3 should fail")
			}
			v, ok := AsViolation(err)
			if !ok || v.Property != "DL3" {
				t.Fatalf("not a DL3 violation: %v", err)
			}
			if v.Index != -1 {
				t.Fatalf("DL3 violation should point at end of trace, got %d", v.Index)
			}
			if !strings.Contains(v.Detail, tc.detail) {
				t.Fatalf("detail %q does not contain %q", v.Detail, tc.detail)
			}
		})
	}
}

func TestCheckValid(t *testing.T) {
	tr := Trace{
		sendM(0), sendP("d0"), recvP("d0"), recvM(0), sendPR("a0"), recvPR("a0"),
	}
	if err := CheckValid(tr); err != nil {
		t.Fatalf("valid execution rejected: %v", err)
	}
}

func TestCheckValidRejectsEachProperty(t *testing.T) {
	tests := []struct {
		name string
		tr   Trace
		prop string
	}{
		{"PL1 t→r", Trace{recvP("x")}, "PL1"},
		{"PL1 r→t", Trace{recvPR("x")}, "PL1"},
		{"DL1", Trace{sendM(0), recvM(0), recvM(0)}, "DL1"},
		{"DL2", Trace{sendM(0), sendM(1), recvM(1), recvM(0)}, "DL2"},
		{"DL3", Trace{sendM(0)}, "DL3"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := CheckValid(tt.tr)
			if err == nil {
				t.Fatal("CheckValid accepted an invalid trace")
			}
			v, ok := AsViolation(err)
			if !ok || v.Property != tt.prop {
				t.Fatalf("got violation %v, want property %s", err, tt.prop)
			}
		})
	}
}

func TestCheckSemiValid(t *testing.T) {
	// One outstanding message: semi-valid.
	tr := Trace{sendM(0), recvM(0), sendM(1), sendP("d1")}
	if err := CheckSemiValid(tr); err != nil {
		t.Fatalf("semi-valid execution rejected: %v", err)
	}
	// Zero outstanding: not semi-valid (sm must equal rm+1).
	if err := CheckSemiValid(Trace{sendM(0), recvM(0)}); err == nil {
		t.Fatal("sm=rm execution accepted as semi-valid")
	}
	// Two outstanding: not semi-valid.
	if err := CheckSemiValid(Trace{sendM(0), sendM(1)}); err == nil {
		t.Fatal("sm=rm+2 execution accepted as semi-valid")
	}
}

func TestCheckSafetyCatchesInvalidExecution(t *testing.T) {
	// The Theorem 3.1/4.1 target shape: rm = sm + 1.
	tr := Trace{sendM(0), recvM(0), recvM(0)}
	err := CheckSafety(tr)
	if err == nil {
		t.Fatal("CheckSafety accepted an rm=sm+1 execution")
	}
	v, _ := AsViolation(err)
	if v.Property != "DL1" {
		t.Fatalf("expected DL1 violation, got %v", err)
	}
}

func TestViolationErrorString(t *testing.T) {
	v := &Violation{Property: "DL1", Index: 3, Detail: "dup"}
	if !strings.Contains(v.Error(), "DL1") || !strings.Contains(v.Error(), "3") {
		t.Fatalf("Error() = %q", v.Error())
	}
	end := &Violation{Property: "DL3", Index: -1, Detail: "missing"}
	if !strings.Contains(end.Error(), "end of trace") {
		t.Fatalf("Error() = %q", end.Error())
	}
}

// Property: any "echo" trace in which each send_pkt is immediately followed
// by a matching receive_pkt satisfies PL1 in both directions.
func TestQuickPL1EchoTraces(t *testing.T) {
	f := func(headers []uint8, dirs []bool) bool {
		var tr Trace
		n := len(headers)
		if len(dirs) < n {
			n = len(dirs)
		}
		for i := 0; i < n; i++ {
			d := TtoR
			if dirs[i] {
				d = RtoT
			}
			p := pkt(string(rune('a' + headers[i]%4)))
			tr = append(tr,
				Event{Kind: SendPkt, Dir: d, Pkt: p},
				Event{Kind: ReceivePkt, Dir: d, Pkt: p})
		}
		return CheckPL1(tr, TtoR) == nil && CheckPL1(tr, RtoT) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: delivering any subset of sent messages in send order satisfies
// DL1 and DL2; delivering any message twice violates DL1.
func TestQuickDLSubsetDelivery(t *testing.T) {
	f := func(deliver []bool) bool {
		var tr Trace
		for i := range deliver {
			tr = append(tr, sendM(i))
		}
		for i, d := range deliver {
			if d {
				tr = append(tr, recvM(i))
			}
		}
		if CheckDL1(tr) != nil || CheckDL2(tr) != nil {
			return false
		}
		// Duplicate the first delivered message, if any.
		for i, d := range deliver {
			if d {
				dup := append(append(Trace{}, tr...), recvM(i))
				return CheckDL1(dup) != nil
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderCloneIndependence(t *testing.T) {
	r := NewRecorder()
	r.SendMsg(msg(0))
	c := r.Clone()
	c.ReceiveMsg(msg(0))
	if len(r.Trace()) != 1 || len(c.Trace()) != 2 {
		t.Fatalf("clone not independent: r=%d c=%d", len(r.Trace()), len(c.Trace()))
	}
}

func TestStringRenderings(t *testing.T) {
	p := Packet{Header: "d0", Payload: "hi"}
	if p.String() != "d0[hi]" {
		t.Fatalf("Packet.String = %q", p.String())
	}
	if (Packet{Header: "a1"}).String() != "a1" {
		t.Fatal("empty payload should render bare header")
	}
	if TtoR.String() != "t→r" || RtoT.String() != "r→t" {
		t.Fatal("Dir.String wrong")
	}
	tr := Trace{sendM(1), sendP("d0")}
	s := tr.String()
	if !strings.Contains(s, "send_msg") || !strings.Contains(s, "send_pkt^t→r(d0)") {
		t.Fatalf("Trace.String = %q", s)
	}
}

func TestPacketLess(t *testing.T) {
	a := Packet{Header: "a"}
	b := Packet{Header: "b"}
	if !PacketLess(a, b) || PacketLess(b, a) {
		t.Fatal("header ordering wrong")
	}
	p1 := Packet{Header: "a", Payload: "1"}
	p2 := Packet{Header: "a", Payload: "2"}
	if !PacketLess(p1, p2) || PacketLess(p2, p1) {
		t.Fatal("payload tiebreak wrong")
	}
	if PacketLess(a, a) {
		t.Fatal("irreflexivity broken")
	}
}

func TestCheckSemiValidRejectsSafetyViolations(t *testing.T) {
	// Each safety property must be consulted by CheckSemiValid.
	tests := []struct {
		name string
		tr   Trace
	}{
		{"PL1 t→r", Trace{sendM(0), recvP("x")}},
		{"PL1 r→t", Trace{sendM(0), recvPR("x")}},
		{"DL1", Trace{sendM(0), recvM(0), recvM(0), sendM(1)}},
		{"DL2", Trace{sendM(0), sendM(1), sendM(2), recvM(1), recvM(0), sendM(3)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := CheckSemiValid(tt.tr); err == nil {
				t.Fatal("semi-validity accepted a safety-violating trace")
			}
		})
	}
}

func TestCheckSafetyConsultsEveryProperty(t *testing.T) {
	tests := []struct {
		tr   Trace
		prop string
	}{
		{Trace{recvP("x")}, "PL1"},
		{Trace{recvPR("x")}, "PL1"},
		{Trace{recvM(0)}, "DL1"},
		{Trace{sendM(0), sendM(1), recvM(1), recvM(0)}, "DL2"},
	}
	for _, tt := range tests {
		err := CheckSafety(tt.tr)
		if err == nil {
			t.Fatalf("CheckSafety accepted %v", tt.tr)
		}
		if v, _ := AsViolation(err); v.Property != tt.prop {
			t.Fatalf("property = %v, want %s", err, tt.prop)
		}
	}
	if err := CheckSafety(Trace{sendM(0)}); err != nil {
		t.Fatalf("CheckSafety must not require delivery: %v", err)
	}
}

func TestAsViolationNonViolation(t *testing.T) {
	if _, ok := AsViolation(nil); ok {
		t.Fatal("nil is not a violation")
	}
	if _, ok := AsViolation(errOpaque{}); ok {
		t.Fatal("opaque error is not a violation")
	}
}

type errOpaque struct{}

func (errOpaque) Error() string { return "opaque" }

func TestKindAndDirStringFallbacks(t *testing.T) {
	if Kind(99).String() != "kind(99)" {
		t.Fatalf("Kind fallback = %q", Kind(99).String())
	}
	if Dir(99).String() != "dir(99)" {
		t.Fatalf("Dir fallback = %q", Dir(99).String())
	}
}

func TestRecorderTraceCopyAndBounds(t *testing.T) {
	r := NewRecorder()
	r.SendMsg(msg(0))
	tr := r.Trace()
	if len(tr) != 1 {
		t.Fatalf("Trace = %v", tr)
	}
	tr[0] = Event{Kind: ReceiveMsg, Msg: msg(9)}
	if r.Trace()[0].Kind != SendMsg {
		t.Fatal("Trace() exposed internal storage")
	}
}
