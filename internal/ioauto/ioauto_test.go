package ioauto

import (
	"strings"
	"testing"

	"repro/internal/ioa"
)

// --- framework ---

func TestComposeRejectsSharedOutputs(t *testing.T) {
	a := NewUser(1)
	b := NewUser(1) // both own send_msg
	if _, err := Compose("bad", a, b); err == nil {
		t.Fatal("two owners of send_msg accepted")
	}
}

func TestComposeRejectsSharedInternal(t *testing.T) {
	ch1 := NewChannel(NonFIFOKind, false, []string{"d0"}, 1) // internal lose(d0)
	ch2 := NewChannel(NonFIFOKind, false, []string{"d0"}, 1)
	if _, err := Compose("bad", ch1, ch2); err == nil {
		t.Fatal("shared internal action accepted")
	}
}

func TestComposeEmpty(t *testing.T) {
	if _, err := Compose("empty"); err == nil {
		t.Fatal("empty composition accepted")
	}
}

func TestCompositeSignatureClasses(t *testing.T) {
	sys, err := Compose("sys", NewUser(1), NewAltBitT(),
		NewChannel(NonFIFOKind, false, []string{"d0", "d1"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	sig := sys.Signature()
	if sig["send_msg"] != Output {
		t.Fatalf("send_msg class = %v", sig["send_msg"])
	}
	if sig["send(d0)"] != Output { // owned by altbitT
		t.Fatalf("send(d0) class = %v", sig["send(d0)"])
	}
	if sig["lose(d0)"] != Internal {
		t.Fatalf("lose(d0) class = %v", sig["lose(d0)"])
	}
	if sig["recv'(a0)"] != Input { // nobody owns the ack channel here
		t.Fatalf("recv'(a0) class = %v", sig["recv'(a0)"])
	}
}

func TestCompositeApplyRoutesToAllParts(t *testing.T) {
	sys, err := Compose("sys", NewUser(2), NewAltBitT(), NewDLMonitor(3))
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Init()
	s, err = s.Apply("send_msg")
	if err != nil {
		t.Fatal(err)
	}
	// user advanced, transmitter pending, monitor counted.
	key := s.Key()
	for _, want := range []string{"user{1/2}", "pend=1", "sm=1"} {
		if !strings.Contains(key, want) {
			t.Fatalf("composite key missing %q: %s", want, key)
		}
	}
}

func TestCompositeApplyUnknownAction(t *testing.T) {
	sys, _ := Compose("sys", NewUser(1))
	if _, err := sys.Init().Apply("nope"); err == nil {
		t.Fatal("unknown action accepted")
	}
}

func TestReachFindsInitialMatch(t *testing.T) {
	res, err := Reach(NewUser(1), func(State) bool { return true }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil || len(res.Found) != 0 {
		t.Fatalf("initial match should give an empty path: %+v", res)
	}
}

func TestReachExhaustsUser(t *testing.T) {
	res, err := Reach(NewUser(3), func(State) bool { return false }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.States != 4 {
		t.Fatalf("user(3) has 4 states: %+v", res)
	}
}

// --- channel automata ---

func TestNonFIFOChannelReordering(t *testing.T) {
	ch := NewChannel(NonFIFOKind, false, []string{"d0", "d1"}, 4)
	s := ch.Init()
	var err error
	for _, a := range []string{"send(d0)", "send(d1)"} {
		if s, err = s.Apply(a); err != nil {
			t.Fatal(err)
		}
	}
	// Both headers deliverable: reordering possible.
	en := strings.Join(s.Enabled(), " ")
	if !strings.Contains(en, "recv(d0)") || !strings.Contains(en, "recv(d1)") {
		t.Fatalf("enabled = %q", en)
	}
	// Deliver out of order.
	if s, err = s.Apply("recv(d1)"); err != nil {
		t.Fatal(err)
	}
	if s, err = s.Apply("recv(d0)"); err != nil {
		t.Fatal(err)
	}
	if len(s.Enabled()) != 0 {
		t.Fatalf("drained channel still enabled: %v", s.Enabled())
	}
}

func TestFIFOChannelHeadOnly(t *testing.T) {
	ch := NewChannel(FIFOKind, false, []string{"d0", "d1"}, 4)
	s, _ := ch.Init().Apply("send(d0)")
	s, _ = s.Apply("send(d1)")
	en := strings.Join(s.Enabled(), " ")
	if strings.Contains(en, "recv(d1)") {
		t.Fatalf("FIFO channel offered a non-head packet: %q", en)
	}
	if _, err := s.Apply("recv(d1)"); err == nil {
		t.Fatal("FIFO accepted out-of-order delivery")
	}
}

func TestChannelCapacityDropsSilently(t *testing.T) {
	ch := NewChannel(NonFIFOKind, false, []string{"d0"}, 1)
	s, _ := ch.Init().Apply("send(d0)")
	s2, err := s.Apply("send(d0)") // beyond capacity: input-enabled no-op
	if err != nil {
		t.Fatal(err)
	}
	if s2.Key() != s.Key() {
		t.Fatal("over-capacity send should be a no-op")
	}
}

func TestChannelLossAction(t *testing.T) {
	ch := NewChannel(NonFIFOKind, false, []string{"d0"}, 2)
	s, _ := ch.Init().Apply("send(d0)")
	s, err := s.Apply("lose(d0)")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Enabled()) != 0 {
		t.Fatal("lost packet still deliverable")
	}
	if _, err := s.Apply("recv(d0)"); err == nil {
		t.Fatal("delivery of a lost packet accepted")
	}
}

func TestChannelErrors(t *testing.T) {
	ch := NewChannel(NonFIFOKind, false, []string{"d0"}, 2)
	s := ch.Init()
	if _, err := s.Apply("send(zz)"); err == nil {
		t.Fatal("unknown header accepted")
	}
	if _, err := s.Apply("garbage"); err == nil {
		t.Fatal("malformed action accepted")
	}
}

// --- the headline: the paper's system, in the original formalism ---

func TestAltBitViolationReachableOverNonFIFO(t *testing.T) {
	sys, err := NewAltBitSystem(NonFIFOKind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reach(sys, Violated, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found == nil {
		t.Fatalf("the DL violation must be reachable over the non-FIFO channel (states=%d)", res.States)
	}
	// The witness replays a stale d0: two recv(d0) with three receive_msg
	// against two send_msg.
	path := strings.Join(res.Found, " ")
	if strings.Count(path, "recv(d0)") < 2 {
		t.Fatalf("witness should replay d0: %s", path)
	}
	if strings.Count(path, "receive_msg") != strings.Count(path, "send_msg")+1 {
		t.Fatalf("witness should have rm = sm + 1: %s", path)
	}
}

func TestAltBitSafeOverFIFOAutomata(t *testing.T) {
	sys, err := NewAltBitSystem(FIFOKind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reach(sys, Violated, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != nil {
		t.Fatalf("violation reachable over FIFO: %v", res.Found)
	}
	if !res.Exhausted {
		t.Fatalf("FIFO system should be exhaustible (states=%d)", res.States)
	}
}

func TestAltBitWitnessIsShortest(t *testing.T) {
	sys, err := NewAltBitSystem(NonFIFOKind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reach(sys, Violated, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// BFS witness: hand-counted minimum is 13 actions (2 submissions, 3
	// data sends incl. the duplicate, 3 data deliveries, 2 acks each way
	// counted once, 3 deliveries to the user).
	if len(res.Found) > 16 {
		t.Fatalf("witness suspiciously long (%d): %v", len(res.Found), res.Found)
	}
}

func TestMonitorDetectsOverDelivery(t *testing.T) {
	m := NewDLMonitor(2)
	s := m.Init()
	var err error
	if s, err = s.Apply("receive_msg"); err != nil {
		t.Fatal(err)
	}
	if !Violated(s) {
		t.Fatal("rm=1, sm=0 should violate")
	}
	// Violation is sticky.
	if s, err = s.Apply("send_msg"); err != nil {
		t.Fatal(err)
	}
	if !Violated(s) {
		t.Fatal("violation must be sticky")
	}
}

func TestUserAutomatonBounds(t *testing.T) {
	u := NewUser(1)
	s, err := u.Init().Apply("send_msg")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Enabled()) != 0 {
		t.Fatal("user should stop at its limit")
	}
	if _, err := s.Apply("send_msg"); err == nil {
		t.Fatal("over-limit send_msg accepted")
	}
}

func TestAltBitTAutomaton(t *testing.T) {
	a := NewAltBitT()
	s, _ := a.Init().Apply("send_msg")
	if got := s.Enabled(); len(got) != 1 || got[0] != "send(d0)" {
		t.Fatalf("enabled = %v", got)
	}
	// Retransmission: applying the send leaves the state unchanged.
	s2, err := s.Apply("send(d0)")
	if err != nil || s2.Key() != s.Key() {
		t.Fatalf("send should be a self-loop: %v, %v", s2, err)
	}
	// Wrong-bit ack ignored; right-bit ack flips.
	s3, _ := s.Apply("recv'(a1)")
	if s3.Key() != s.Key() {
		t.Fatal("stale ack should be ignored")
	}
	s4, _ := s.Apply("recv'(a0)")
	if !strings.Contains(s4.Key(), "bit=1") || !strings.Contains(s4.Key(), "pend=0") {
		t.Fatalf("ack handling wrong: %s", s4.Key())
	}
	if _, err := s.Apply("send(d1)"); err == nil {
		t.Fatal("wrong-bit send accepted")
	}
}

func TestAltBitRAutomatonSaturation(t *testing.T) {
	r := NewAltBitR(1)
	s := r.Init()
	var err error
	for i := 0; i < 3; i++ {
		if s, err = s.Apply("recv(d0)"); err != nil {
			t.Fatal(err)
		}
	}
	// Counters saturated at 1 despite 3 receipts.
	if !strings.Contains(s.Key(), "a0=1") || !strings.Contains(s.Key(), "del=1") {
		t.Fatalf("saturation broken: %s", s.Key())
	}
	if _, err := s.Apply("send'(a1)"); err == nil {
		t.Fatal("disabled ack accepted")
	}
}

func TestWitnessTraceRecheckedByCheckers(t *testing.T) {
	sys, err := NewAltBitSystem(NonFIFOKind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reach(sys, Violated, 1<<20)
	if err != nil || res.Found == nil {
		t.Fatalf("no witness: %v", err)
	}
	tr, err := WitnessTrace(res.Found)
	if err != nil {
		t.Fatal(err)
	}
	// The witness must fail the independent trace checkers too: the
	// packet correspondence (PL1) holds — the channel automaton enforces
	// it — while the message correspondence (DL1) is violated.
	if err := ioa.CheckPL1(tr, ioa.TtoR); err != nil {
		t.Fatalf("witness PL1 t→r: %v", err)
	}
	if err := ioa.CheckPL1(tr, ioa.RtoT); err != nil {
		t.Fatalf("witness PL1 r→t: %v", err)
	}
	err = ioa.CheckSafety(tr)
	if err == nil {
		t.Fatalf("checkers accepted the witness:\n%s", tr)
	}
	if v, _ := ioa.AsViolation(err); v.Property != "DL1" {
		t.Fatalf("expected DL1, got %v", err)
	}
}

func TestWitnessTraceUnknownAction(t *testing.T) {
	if _, err := WitnessTrace([]string{"teleport(x)"}); err == nil {
		t.Fatal("unknown action accepted")
	}
}

func TestWitnessTraceLossOmitted(t *testing.T) {
	tr, err := WitnessTrace([]string{"send(d0)", "lose(d0)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 1 {
		t.Fatalf("loss should leave no external event: %v", tr)
	}
}
