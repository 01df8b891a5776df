package netlink

// Server is the soak server's listener mux: ONE UDP socket is the
// receiver-side endpoint of every concurrent session. A read pump routes
// arriving datagrams to per-session inboxes by source address (each session
// owns a distinct client socket, so the source address identifies it), and
// acknowledgements are written back through the shared socket (UDP WriteTo
// is goroutine-safe). This is what lets `nfserve load -sessions 1000` run on
// a bounded file-descriptor budget: the peak socket count is the worker pool
// size plus one, not the session count.

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// inboxDepth bounds one session's routed-datagram queue. A lock-step
// session never has more than a handful of datagrams in flight, so the
// bound only matters for stragglers; an overflowing datagram is dropped,
// which surfaces as ordinary recorded wire loss.
const inboxDepth = 256

// Server runs concurrent soak sessions behind one shared UDP socket.
type Server struct {
	conn net.PacketConn

	mu      sync.Mutex
	inboxes map[string]chan []byte

	pumpDone  chan struct{}
	closeOnce sync.Once
}

// NewServer binds the shared socket (addr defaults to "127.0.0.1:0") and
// starts the read pump.
func NewServer(addr string) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netlink: server socket: %w", err)
	}
	sv := &Server{
		conn:     conn,
		inboxes:  make(map[string]chan []byte),
		pumpDone: make(chan struct{}),
	}
	go sv.pump()
	return sv, nil
}

// Addr reports the shared socket's address.
func (sv *Server) Addr() net.Addr { return sv.conn.LocalAddr() }

// Close shuts the shared socket down and waits for the pump to exit.
// Sessions still running observe wire loss (recorded Drop decisions) and
// wind down through their own step budgets; drain a soak before closing.
func (sv *Server) Close() error {
	sv.closeOnce.Do(func() {
		_ = sv.conn.Close()
		<-sv.pumpDone
	})
	return nil
}

// pump routes every datagram arriving at the shared socket to the inbox
// registered for its source address. Datagrams from unknown sources (a
// session that already finished) and inbox overflows are dropped — both
// surface as ordinary wire loss to the affected session.
func (sv *Server) pump() {
	defer close(sv.pumpDone)
	buf := make([]byte, 64<<10)
	for {
		n, src, err := sv.conn.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		b := make([]byte, n)
		copy(b, buf[:n])
		sv.mu.Lock()
		inbox := sv.inboxes[src.String()]
		sv.mu.Unlock()
		if inbox == nil {
			continue
		}
		select {
		case inbox <- b:
		default:
		}
	}
}

func (sv *Server) register(key string) chan []byte {
	inbox := make(chan []byte, inboxDepth)
	sv.mu.Lock()
	sv.inboxes[key] = inbox
	sv.mu.Unlock()
	return inbox
}

func (sv *Server) unregister(key string) {
	sv.mu.Lock()
	delete(sv.inboxes, key)
	sv.mu.Unlock()
}

// RunSession runs one lock-step soak session against the shared socket: the
// session's transmitter station gets a fresh client socket, its
// receiver-side wire is the mux. Blocks until the session completes; safe to
// call from many goroutines. Each call runs on session state of its own, so
// the result's Log is the caller's to keep.
func (sv *Server) RunSession(cfg SessionConfig) (*SessionResult, error) {
	return sv.runSession(cfg, newWorker())
}

// runSession runs one session on w's state, opening the session's client
// socket and registering its inbox. The client socket stays per session
// because its address is the session's mux key; the inbox does too, since
// the pump may still send a straggler of the previous session to it.
func (sv *Server) runSession(cfg SessionConfig, w *worker) (*SessionResult, error) {
	clientConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netlink: client socket: %w", err)
	}
	key := clientConn.LocalAddr().String()
	inbox := sv.register(key)
	env := &sessionEnv{
		dataConn: clientConn,
		// The ack lane writes through the SHARED socket; env.close must not
		// close it, so only the client socket is released here.
		ackConn:  sv.conn,
		dataAddr: sv.conn.LocalAddr(),
		ackAddr:  clientConn.LocalAddr(),
		recvData: inboxReader(inbox),
		recvAck:  deadlineReader(clientConn, w.buf),
		close: func() {
			sv.unregister(key)
			_ = clientConn.Close()
		},
	}
	return runSession(cfg, env, w), nil
}

// inboxReader adapts a mux inbox to the session's blocking-read shape,
// bounded by sessionReadTimeout and reusing one timer across calls
// (sessions read thousands of times). It needs no read buffer: the pump
// reads into its own and sends each datagram copied out, while the client
// socket's reader uses the buffer its worker reuses across sessions.
func inboxReader(inbox <-chan []byte) func() ([]byte, bool) {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	return func() ([]byte, bool) {
		timer.Reset(sessionReadTimeout)
		select {
		case b := <-inbox:
			if !timer.Stop() {
				<-timer.C
			}
			return b, true
		case <-timer.C:
			return nil, false
		}
	}
}
