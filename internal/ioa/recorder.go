package ioa

// Recorder accumulates an execution trace.
type Recorder struct {
	trace Trace
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Append records an event.
func (r *Recorder) Append(e Event) { r.trace = append(r.trace, e) }

// SendMsg records a send_msg(m) action.
func (r *Recorder) SendMsg(m Message) { r.Append(Event{Kind: SendMsg, Msg: m}) }

// ReceiveMsg records a receive_msg(m) action.
func (r *Recorder) ReceiveMsg(m Message) { r.Append(Event{Kind: ReceiveMsg, Msg: m}) }

// SendPkt records a send_pkt action on channel d.
func (r *Recorder) SendPkt(d Dir, p Packet) { r.Append(Event{Kind: SendPkt, Dir: d, Pkt: p}) }

// ReceivePkt records a receive_pkt action on channel d.
func (r *Recorder) ReceivePkt(d Dir, p Packet) { r.Append(Event{Kind: ReceivePkt, Dir: d, Pkt: p}) }

// Reset empties the recorder, keeping the backing array for reuse by
// pooled runners. Safe because Trace returns a copy.
func (r *Recorder) Reset() { r.trace = r.trace[:0] }

// Trace returns a copy of the recorded trace.
func (r *Recorder) Trace() Trace {
	out := make(Trace, len(r.trace))
	copy(out, r.trace)
	return out
}

// Clone returns an independent copy of the recorder.
func (r *Recorder) Clone() *Recorder {
	c := &Recorder{trace: make(Trace, len(r.trace))}
	copy(c.trace, r.trace)
	return c
}
