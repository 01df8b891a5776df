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
// Equivalence contract, enforced by TestLiveCheckerMatchesBatch and the
// simdiff harness: after feeding any trace event-by-event, Safety() equals
// CheckSafety(trace) and DL3Quiescent() equals CheckDL3Quiescent(trace),
// including the Violation's Index and Detail bytes. Two invariants make
// this hold: each property records only its *first* violation and then
// stops updating its own state (the batch checker returns at that point, so
// later state is unobservable), and Safety() selects among the recorded
// firsts in the batch checker's fixed property order (PL1 t→r, PL1 r→t,
// DL1, DL2) rather than chronologically.
type LiveChecker struct {
	idx int // global event index, counted across all four kinds

	outData map[Packet]int // PL1 t→r: sends without a matching receive
	outAck  map[Packet]int // PL1 r→t
	pl1Data *Violation
	pl1Ack  *Violation

	dl1Out  map[int]int    // DL1: message ID -> unmatched sends
	payload map[int]string // ID -> sent payload; written identically for DL1 and DL3
	dl1     *Violation

	sendPos     map[int]int // DL2: message ID -> position in send order
	nsent       int
	lastRecvPos int
	dl2         *Violation

	unmatched map[int]int // DL3: message ID -> sends without a matching receive
	sm        int
}

// NewLiveChecker returns an empty checker.
func NewLiveChecker() *LiveChecker {
	return &LiveChecker{
		outData:     make(map[Packet]int),
		outAck:      make(map[Packet]int),
		dl1Out:      make(map[int]int),
		payload:     make(map[int]string),
		sendPos:     make(map[int]int),
		lastRecvPos: -1,
		unmatched:   make(map[int]int),
	}
}

// Reset returns the checker to its initial state, keeping the maps for
// reuse across pooled executions.
func (c *LiveChecker) Reset() {
	c.idx = 0
	clear(c.outData)
	clear(c.outAck)
	c.pl1Data, c.pl1Ack = nil, nil
	clear(c.dl1Out)
	clear(c.payload)
	c.dl1 = nil
	clear(c.sendPos)
	c.nsent = 0
	c.lastRecvPos = -1
	c.dl2 = nil
	clear(c.unmatched)
	c.sm = 0
}

// SendMsg implements Monitor.
func (c *LiveChecker) SendMsg(m Message) {
	c.idx++
	if c.dl1 == nil {
		c.dl1Out[m.ID]++
	}
	c.payload[m.ID] = m.Payload
	if c.dl2 == nil {
		if _, dup := c.sendPos[m.ID]; !dup {
			c.sendPos[m.ID] = c.nsent
		}
		c.nsent++
	}
	c.unmatched[m.ID]++
	c.sm++
}

// ReceiveMsg implements Monitor.
func (c *LiveChecker) ReceiveMsg(m Message) {
	i := c.idx
	c.idx++
	if c.dl1 == nil {
		switch {
		case c.dl1Out[m.ID] == 0:
			c.dl1 = &Violation{
				Property: "DL1",
				Index:    i,
				Detail: fmt.Sprintf("receive_msg(%s) has no unmatched preceding send_msg "+
					"(duplicate or spurious delivery)", m),
			}
		case c.payload[m.ID] != m.Payload:
			c.dl1 = &Violation{
				Property: "DL1",
				Index:    i,
				Detail: fmt.Sprintf("receive_msg(%s) delivered payload %q but send_msg carried %q",
					m, m.Payload, c.payload[m.ID]),
			}
		default:
			c.dl1Out[m.ID]--
		}
	}
	if c.dl2 == nil {
		if pos, ok := c.sendPos[m.ID]; ok {
			if pos < c.lastRecvPos {
				c.dl2 = &Violation{
					Property: "DL2",
					Index:    i,
					Detail: fmt.Sprintf("receive_msg(%s) (sent at position %d) delivered after a message "+
						"sent later (position %d): FIFO order broken", m, pos, c.lastRecvPos),
				}
			} else if pos > c.lastRecvPos {
				c.lastRecvPos = pos
			}
		}
	}
	if c.unmatched[m.ID] > 0 && c.payload[m.ID] == m.Payload {
		c.unmatched[m.ID]--
	}
}

// SendPkt implements Monitor.
func (c *LiveChecker) SendPkt(d Dir, p Packet) {
	c.idx++
	if d == TtoR {
		if c.pl1Data == nil {
			c.outData[p]++
		}
	} else if c.pl1Ack == nil {
		c.outAck[p]++
	}
}

// ReceivePkt implements Monitor.
func (c *LiveChecker) ReceivePkt(d Dir, p Packet) {
	i := c.idx
	c.idx++
	out, slot := c.outData, &c.pl1Data
	if d != TtoR {
		out, slot = c.outAck, &c.pl1Ack
	}
	if *slot != nil {
		return
	}
	if out[p] == 0 {
		*slot = &Violation{
			Property: "PL1",
			Index:    i,
			Detail:   fmt.Sprintf("receive_pkt^%s(%s) without an unmatched preceding send_pkt", d, p),
		}
		return
	}
	out[p]--
}

// Events reports how many actions the checker has observed.
func (c *LiveChecker) Events() int { return c.idx }

// Safety returns the first safety violation in CheckSafety's property order
// (PL1 t→r, PL1 r→t, DL1, DL2), or nil.
func (c *LiveChecker) Safety() error {
	switch {
	case c.pl1Data != nil:
		return c.pl1Data
	case c.pl1Ack != nil:
		return c.pl1Ack
	case c.dl1 != nil:
		return c.dl1
	case c.dl2 != nil:
		return c.dl2
	}
	return nil
}

// DL3Quiescent returns the end-of-stream quiescent-liveness verdict,
// matching CheckDL3Quiescent on the observed trace.
func (c *LiveChecker) DL3Quiescent() error {
	stranded, first := 0, -1
	//nfvet:allow maprange (order-insensitive sum and min over the map)
	for id, n := range c.unmatched {
		if n > 0 {
			stranded += n
			if first == -1 || id < first {
				first = id
			}
		}
	}
	if stranded > 0 {
		return &Violation{
			Property: "DL3",
			Index:    -1,
			Detail: fmt.Sprintf("%d of %d sent messages have no matching delivery (first stranded id %d)",
				stranded, c.sm, first),
		}
	}
	return nil
}
