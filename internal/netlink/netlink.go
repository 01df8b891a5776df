// Package netlink runs the repo's data link protocols over real datagram
// sockets — the paper's model meeting an actual non-FIFO transport.
//
// A UDP path is precisely the physical layer of Section 2.1: datagrams may
// be lost or reordered, never corrupted (checksummed) and never duplicated
// end-to-end by this package. The Sender drives a protocol.Transmitter and
// the Receiver drives a protocol.Receiver, each from a single event-loop
// goroutine (the endpoint automata are deliberately single-threaded);
// retransmission is paced by a resend ticker, which stands in for the
// simulator's step scheduling.
//
// Only protocols that need no channel genie are usable here — seqnum,
// altbit, and the unbounded transport variants. That is not a limitation of
// this package but the paper's conclusion restated: over a real non-FIFO
// channel, a bounded-header protocol would need exactly the unavailable
// global knowledge the genie models, so one pays the Θ(n) headers instead.
//
// ChaosConn wraps any net.PacketConn with seeded, deterministic loss and
// reordering, so the adversarial channel behaviours of the simulator can be
// reproduced over the socket API in tests.
package netlink

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/protocol"
	"repro/internal/wire"
)

// ErrClosed is returned by operations on a closed station.
var ErrClosed = errors.New("netlink: station closed")

// ErrFlushTimeout is returned when Flush's deadline expires before every
// submitted message is confirmed.
var ErrFlushTimeout = errors.New("netlink: flush timeout")

// DefaultResendInterval paces retransmissions when no option overrides it.
const DefaultResendInterval = 2 * time.Millisecond

// SenderOption configures a Sender.
type SenderOption func(*Sender)

// WithResendInterval overrides the retransmission pacing.
func WithResendInterval(d time.Duration) SenderOption {
	return func(s *Sender) {
		if d > 0 {
			s.resendEvery = d
		}
	}
}

// Sender drives a protocol transmitter over a datagram socket.
type Sender struct {
	conn        net.PacketConn
	remote      net.Addr
	resendEvery time.Duration

	submit   chan string
	flushReq chan chan struct{}
	incoming chan []byte

	stop     chan struct{}
	loopDone chan struct{}
	readDone chan struct{}

	closeOnce sync.Once
}

// NewSender starts a sender for protocol p on conn, talking to remote.
// Close releases it (and closes conn).
func NewSender(p protocol.Protocol, conn net.PacketConn, remote net.Addr, opts ...SenderOption) *Sender {
	t, _ := p.New(nil, nil)
	s := &Sender{
		conn:        conn,
		remote:      remote,
		resendEvery: DefaultResendInterval,
		submit:      make(chan string),
		flushReq:    make(chan chan struct{}),
		incoming:    make(chan []byte, 64),
		stop:        make(chan struct{}),
		loopDone:    make(chan struct{}),
		readDone:    make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	go s.readLoop()
	go s.loop(t)
	return s
}

// Send enqueues one message for reliable delivery. It never blocks on the
// network, only on handing the payload to the event loop.
func (s *Sender) Send(payload string) error {
	select {
	case s.submit <- payload:
		return nil
	case <-s.stop:
		return ErrClosed
	}
}

// Flush blocks until every message submitted so far is confirmed delivered,
// or the timeout expires.
func (s *Sender) Flush(timeout time.Duration) error {
	done := make(chan struct{})
	select {
	case s.flushReq <- done:
	case <-s.stop:
		return ErrClosed
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return ErrFlushTimeout
	case <-s.stop:
		return ErrClosed
	}
}

// Close stops the sender's goroutines and closes the socket.
func (s *Sender) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		_ = s.conn.Close() // unblocks the read loop
		<-s.readDone
		<-s.loopDone
	})
	return nil
}

func (s *Sender) readLoop() {
	defer close(s.readDone)
	buf := make([]byte, 64<<10)
	for {
		n, _, err := s.conn.ReadFrom(buf)
		if err != nil {
			return // closed or fatal; the event loop continues on ticker
		}
		b := make([]byte, n)
		copy(b, buf[:n])
		select {
		case s.incoming <- b:
		case <-s.stop:
			return
		}
	}
}

// loop owns the transmitter automaton; nothing else may touch it.
func (s *Sender) loop(t protocol.Transmitter) {
	defer close(s.loopDone)
	ticker := time.NewTicker(s.resendEvery)
	defer ticker.Stop()

	var waiters []chan struct{}
	notify := func() {
		if t.Busy() {
			return
		}
		for _, w := range waiters {
			close(w)
		}
		waiters = nil
	}
	transmit := func() {
		if p, ok := t.NextPkt(); ok {
			_, _ = s.conn.WriteTo(wire.Encode(p), s.remote)
		}
	}

	for {
		select {
		case <-s.stop:
			return
		case payload := <-s.submit:
			t.SendMsg(payload)
			transmit() // fast path: first copy goes out immediately
		case b := <-s.incoming:
			pkt, err := wire.Decode(b)
			if err != nil {
				continue // corrupt datagram; the model assumes none, reality disagrees
			}
			t.DeliverPkt(pkt)
			notify()
			transmit()
		case <-ticker.C:
			transmit() // retransmission pacing
		case w := <-s.flushReq:
			waiters = append(waiters, w)
			notify()
		}
	}
}

// Receiver drives a protocol receiver over a datagram socket and delivers
// payloads on a channel.
type Receiver struct {
	conn net.PacketConn
	out  chan string

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewReceiver starts a receiver for protocol p on conn. Delivered payloads
// appear on Out() in order; the consumer must drain it. Close releases the
// station (and closes conn).
func NewReceiver(p protocol.Protocol, conn net.PacketConn) *Receiver {
	_, r := p.New(nil, nil)
	rc := &Receiver{
		conn: conn,
		out:  make(chan string, 128),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go rc.loop(r)
	return rc
}

// Out returns the in-order stream of delivered payloads.
func (rc *Receiver) Out() <-chan string { return rc.out }

// Close stops the receiver and closes the socket.
func (rc *Receiver) Close() error {
	rc.closeOnce.Do(func() {
		close(rc.stop)
		_ = rc.conn.Close()
		<-rc.done
	})
	return nil
}

// loop owns the receiver automaton. It is read-driven: every arriving
// datagram is handed to the automaton, acknowledgements are written back to
// the datagram's source, and deliveries go to the output channel.
func (rc *Receiver) loop(r protocol.Receiver) {
	defer close(rc.done)
	defer close(rc.out)
	buf := make([]byte, 64<<10)
	for {
		n, src, err := rc.conn.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		pkt, err := wire.Decode(buf[:n])
		if err != nil {
			continue
		}
		r.DeliverPkt(pkt)
		for {
			ack, ok := r.NextPkt()
			if !ok {
				break
			}
			_, _ = rc.conn.WriteTo(wire.Encode(ack), src)
		}
		for _, payload := range r.TakeDelivered() {
			select {
			case rc.out <- payload:
			case <-rc.stop:
				return
			}
		}
	}
}

// Pair is a convenience for tests and examples: a sender/receiver pair
// wired over fresh loopback UDP sockets.
type Pair struct {
	Sender   *Sender
	Receiver *Receiver
}

// NewLoopbackPair binds two UDP sockets on 127.0.0.1 and connects a sender
// for protocol p to a receiver for the same protocol. wrap, if non-nil,
// wraps each socket (e.g. in a ChaosConn) before use.
func NewLoopbackPair(p protocol.Protocol, wrap func(net.PacketConn) net.PacketConn, opts ...SenderOption) (*Pair, error) {
	rConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netlink: receiver socket: %w", err)
	}
	sConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		_ = rConn.Close()
		return nil, fmt.Errorf("netlink: sender socket: %w", err)
	}
	remote := rConn.LocalAddr()
	if wrap != nil {
		rConn = wrap(rConn)
		sConn = wrap(sConn)
	}
	return &Pair{
		Sender:   NewSender(p, sConn, remote, opts...),
		Receiver: NewReceiver(p, rConn),
	}, nil
}

// Close releases both stations.
func (p *Pair) Close() error {
	err1 := p.Sender.Close()
	err2 := p.Receiver.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
