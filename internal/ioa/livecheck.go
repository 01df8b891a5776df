package ioa

import "fmt"

// Monitor observes the externally visible actions of a run in order, as
// they happen. It is the streaming counterpart of Recorder: the simulation
// engine feeds a configured Monitor the exact event sequence it would
// record, which lets the interned fuzz core judge runs without
// materialising a Trace.
type Monitor interface {
	SendMsg(m Message)
	ReceiveMsg(m Message)
	SendPkt(d Dir, p Packet)
	ReceivePkt(d Dir, p Packet)
}

// Recorder is a Monitor (it records the stream instead of judging it).
var _ Monitor = (*Recorder)(nil)

// LiveChecker is a Monitor that incrementally maintains the CheckSafety and
// CheckDL3Quiescent verdicts of the event stream it observes.
//
// Equivalence contract, enforced by TestLiveCheckerMatchesBatch,
// FuzzLiveCheckerMatchesBatch and the simdiff harness: after feeding any
// trace event-by-event, Safety() equals CheckSafety(trace) and
// DL3Quiescent() equals CheckDL3Quiescent(trace), including the Violation's
// Index and Detail bytes. Two invariants make this hold: each property
// records only its *first* violation and then stops updating its own state
// (the batch checker returns at that point, so later state is
// unobservable), and Safety() selects among the recorded firsts in the
// batch checker's fixed property order (PL1 t→r, PL1 r→t, DL1, DL2) rather
// than chronologically.
//
// A first violation is recorded as the event index it fired at, plus what
// its Detail needs that the property's frozen state does not keep: the
// received message for DL1 and DL2, and for DL1 the payload its send
// carried. PL1's packet is its direction's last lookup, and DL2's two
// positions are its own frozen counters. Safety() builds the Violation on
// the first call that returns it, and returns that same pointer until the
// verdict changes or Reset; DL3Quiescent() formats on each call.
// SafetyVerdict and Stranded answer what those two would report without
// building anything, for callers that read only whether, and where, a
// property failed: most executions the fuzzer and the shrinker judge are
// dropped before anyone reads a Detail.
//
// An event costs a slice update; the only map write is a packet's first
// entry into the run's packet table, which also lists the run's packets: a
// checker that once saw a long run keeps its table's capacity, and clearing
// all of it would cost every later run that capacity, so Reset deletes
// just the run's packets. The message
// properties keep their counts in one slice indexed by Message.ID, grown
// by each send to cover its ID; an entry no send has reached reads as
// never sent, and a receive past the slice's end matches nothing. Message
// IDs must therefore be non-negative: the runner numbers sends by count
// (SubmitMsg) and receives by delivery count, and nothing else in the
// module feeds a checker. PL1
// keeps its counts per packet index: one table per run takes each distinct
// packet to its index, and each direction caches the last packet it looked
// up, so the retransmissions of one packet hash once. Each direction also
// holds its last send uncounted until its next send: the runner reports a
// DeliverNow send as send_pkt(p) followed at once by receive_pkt(p), and
// that receive consumes the held send, so the pair touches no table. A
// packet event on a direction other than t→r and r→t counts as an event
// and is otherwise ignored, as CheckPL1 ignores it.
type LiveChecker struct {
	idx int // global event index, counted across all four kinds

	pkts        map[Packet]int // distinct packets of the run -> index into pl1Dir.out
	keys        []Packet       // the run's packets by index: pkts' keys, for Reset
	pl1         [2]pl1Dir      // PL1 per direction: [0] t→r, [1] r→t
	msgs        []msgState     // message ID -> its DL1, DL2 and DL3 state
	dl1, dl2    msgFault
	dl1Sent     string     // DL1: the payload its violating receive's send carried, if one is unmatched
	v           *Violation // the violation Safety() returned last, nil until then
	vk          int        // which one v is, an index into safetyProps; -1 with v nil
	nsent       int        // DL2: sends counted while DL2 holds
	lastRecvPos int        // DL2: highest send position received so far, -1 for none
	sm          int        // DL3: send_msg actions
}

// pl1Dir is PL1's state for one channel direction. A packet's outstanding
// sends are its out count, plus one if it is the held send. at is the index
// of the direction's first receive without an unmatched send, -1 while PL1
// holds there; the direction stops updating at it, so last is that
// receive's packet.
type pl1Dir struct {
	out     []int  // packet index -> counted sends without a matching receive
	last    Packet // the packet of the last lookup, valid while lastI >= 0
	lastI   int
	held    Packet // the last send, not yet counted, valid while holding
	holding bool
	at      int
}

// msgFault is DL1's or DL2's first violation: the receive's event index,
// -1 while the property holds, and the message it received.
type msgFault struct {
	at int
	m  Message
}

// msgState is one message ID's state. Its zero value is an ID never sent.
type msgState struct {
	payload   string // the payload the last send carried; shared by DL1 and DL3
	dl1Out    int    // DL1: sends without a matching receive
	unmatched int    // DL3: sends without a matching receive (same ID and payload)
	sendPos   int    // DL2: position in send order plus one; 0 while unsent
}

// NewLiveChecker returns an empty checker.
func NewLiveChecker() *LiveChecker {
	c := &LiveChecker{pkts: make(map[Packet]int)}
	c.Reset()
	return c
}

// Reset returns the checker to its initial state, keeping the packet
// table and the slices' storage for reuse across pooled executions. It
// empties the table in time proportional to the run, not to the table's
// capacity.
func (c *LiveChecker) Reset() {
	c.idx = 0
	for _, p := range c.keys {
		delete(c.pkts, p)
	}
	c.keys = c.keys[:0]
	for i, d := range c.pl1 {
		c.pl1[i] = pl1Dir{out: d.out[:0], lastI: -1, at: -1}
	}
	c.msgs = c.msgs[:0]
	c.dl1, c.dl2, c.dl1Sent = msgFault{at: -1}, msgFault{at: -1}, ""
	c.v, c.vk = nil, -1
	c.nsent, c.lastRecvPos = 0, -1
	c.sm = 0
}

// SendMsg implements Monitor.
func (c *LiveChecker) SendMsg(m Message) {
	c.idx++
	for len(c.msgs) <= m.ID {
		c.msgs = append(c.msgs, msgState{})
	}
	st := &c.msgs[m.ID]
	if c.dl1.at < 0 {
		st.dl1Out++
	}
	st.payload = m.Payload
	if c.dl2.at < 0 {
		if st.sendPos == 0 {
			st.sendPos = c.nsent + 1
		}
		c.nsent++
	}
	st.unmatched++
	c.sm++
}

// ReceiveMsg implements Monitor.
func (c *LiveChecker) ReceiveMsg(m Message) {
	i := c.idx
	c.idx++
	var st *msgState // nil: no send reached m.ID
	if m.ID < len(c.msgs) {
		st = &c.msgs[m.ID]
	}
	if c.dl1.at < 0 {
		switch {
		case st == nil || st.dl1Out == 0:
			c.dl1 = msgFault{at: i, m: m}
		case st.payload != m.Payload:
			c.dl1, c.dl1Sent = msgFault{at: i, m: m}, st.payload
		default:
			st.dl1Out--
		}
	}
	if st == nil {
		return
	}
	if c.dl2.at < 0 && st.sendPos > 0 {
		if pos := st.sendPos - 1; pos < c.lastRecvPos {
			c.dl2 = msgFault{at: i, m: m}
		} else if pos > c.lastRecvPos {
			c.lastRecvPos = pos
		}
	}
	if st.unmatched > 0 && st.payload == m.Payload {
		st.unmatched--
	}
}

// dir returns PL1's state for direction d, or nil for a direction that is
// neither t→r nor r→t: CheckPL1 judges only those two, so a packet event on
// any other counts as an event and is otherwise ignored.
func (c *LiveChecker) dir(d Dir) *pl1Dir {
	switch d {
	case TtoR:
		return &c.pl1[0]
	case RtoT:
		return &c.pl1[1]
	}
	return nil
}

// count returns p's counted sends on direction pd, entering p into the
// run's packet table if it is new.
func (c *LiveChecker) count(pd *pl1Dir, p Packet) *int {
	if pd.lastI < 0 || pd.last != p {
		i, ok := c.pkts[p]
		if !ok {
			i = len(c.keys)
			c.pkts[p] = i
			c.keys = append(c.keys, p)
		}
		pd.last, pd.lastI = p, i
	}
	for len(pd.out) <= pd.lastI {
		pd.out = append(pd.out, 0)
	}
	return &pd.out[pd.lastI]
}

// SendPkt implements Monitor. The send is held uncounted until the next
// send on its direction, so a receive that consumes it at once touches no
// table.
func (c *LiveChecker) SendPkt(d Dir, p Packet) {
	c.idx++
	pd := c.dir(d)
	if pd == nil || pd.at >= 0 {
		return
	}
	if pd.holding {
		*c.count(pd, pd.held)++
	}
	pd.held, pd.holding = p, true
}

// ReceivePkt implements Monitor.
func (c *LiveChecker) ReceivePkt(d Dir, p Packet) {
	i := c.idx
	c.idx++
	pd := c.dir(d)
	if pd == nil || pd.at >= 0 {
		return
	}
	if pd.holding && pd.held == p {
		pd.holding = false
		return
	}
	n := c.count(pd, p)
	if *n == 0 {
		pd.at = i
		return
	}
	*n--
}

// Events reports how many actions the checker has observed.
func (c *LiveChecker) Events() int { return c.idx }

// safetyProps names the safety properties in CheckSafety's order, the
// order Safety() picks among their first violations in: PL1 t→r, PL1 r→t,
// DL1, DL2.
var safetyProps = [...]string{"PL1", "PL1", "DL1", "DL2"}

// at returns the event index of property k's first violation, k an index
// into safetyProps, or -1 while k holds.
func (c *LiveChecker) at(k int) int {
	switch k {
	case 0, 1:
		return c.pl1[k].at
	case 2:
		return c.dl1.at
	}
	return c.dl2.at
}

// first returns the property Safety() reports, as an index into
// safetyProps, or -1 while every one holds.
func (c *LiveChecker) first() int {
	for k := range safetyProps {
		if c.at(k) >= 0 {
			return k
		}
	}
	return -1
}

// Safety returns the first safety violation in CheckSafety's property order
// (PL1 t→r, PL1 r→t, DL1, DL2), or nil. It builds the Violation on the first
// call that returns it; later calls return the same pointer until the
// verdict changes or Reset.
func (c *LiveChecker) Safety() error {
	k := c.first()
	if k < 0 {
		return nil
	}
	if k != c.vk {
		c.v, c.vk = c.fault(k), k
	}
	return c.v
}

// SafetyVerdict returns the Property and Index of the violation Safety
// returns, or "" and -1 when it returns nil, without building it.
func (c *LiveChecker) SafetyVerdict() (property string, index int) {
	k := c.first()
	if k < 0 {
		return "", -1
	}
	return safetyProps[k], c.at(k)
}

// fault builds property k's first violation, k an index into safetyProps,
// or returns nil while k holds. The property stopped updating its state
// when it fired, so what that state reads now is what it read then.
func (c *LiveChecker) fault(k int) *Violation {
	at := c.at(k)
	if at < 0 {
		return nil
	}
	v := &Violation{Property: safetyProps[k], Index: at}
	switch k {
	case 0, 1:
		v.Detail = fmt.Sprintf("receive_pkt^%s(%s) without an unmatched preceding send_pkt",
			[...]Dir{TtoR, RtoT}[k], c.pl1[k].last)
	case 2:
		// DL1's counts froze with the receive's unmatched sends, if any.
		if m := c.dl1.m; m.ID < len(c.msgs) && c.msgs[m.ID].dl1Out > 0 {
			v.Detail = fmt.Sprintf("receive_msg(%s) delivered payload %q but send_msg carried %q",
				m, m.Payload, c.dl1Sent)
		} else {
			v.Detail = fmt.Sprintf("receive_msg(%s) has no unmatched preceding send_msg "+
				"(duplicate or spurious delivery)", m)
		}
	case 3:
		m := c.dl2.m
		v.Detail = fmt.Sprintf("receive_msg(%s) (sent at position %d) delivered after a message "+
			"sent later (position %d): FIFO order broken", m, c.msgs[m.ID].sendPos-1, c.lastRecvPos)
	}
	return v
}

// Stranded returns how many sends have no matching delivery, the count
// DL3Quiescent's violation reports: DL3Quiescent returns nil exactly when
// it is 0. It builds nothing.
func (c *LiveChecker) Stranded() int {
	n := 0
	for i := range c.msgs {
		n += c.msgs[i].unmatched
	}
	return n
}

// DL3Quiescent returns the end-of-stream quiescent-liveness verdict,
// matching CheckDL3Quiescent on the observed trace. The scan runs in ID
// order, so the first stranded ID is the first one it meets.
func (c *LiveChecker) DL3Quiescent() error {
	stranded := c.Stranded()
	if stranded == 0 {
		return nil
	}
	first := 0
	for c.msgs[first].unmatched == 0 {
		first++
	}
	return &Violation{
		Property: "DL3",
		Index:    -1,
		Detail: fmt.Sprintf("%d of %d sent messages have no matching delivery (first stranded id %d)",
			stranded, c.sm, first),
	}
}
