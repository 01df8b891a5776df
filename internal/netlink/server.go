package netlink

// Server is the soak server's listener mux: ONE UDP socket is the
// receiver-side endpoint of every concurrent session. A read pump routes
// arriving datagrams to the inbox of the session whose client socket sent
// them (each session owns a distinct client socket, so the source address
// identifies it), and acknowledgements are written back through the shared
// socket (UDP WriteTo is goroutine-safe). This is what lets `nfserve load
// -sessions 1000` run on a bounded file-descriptor budget: the peak socket
// count is the worker pool size plus one, not the session count. An inbox
// belongs to the worker that runs the session, which registers it for each
// of its sessions in turn.

import (
	"fmt"
	"net"
	"net/netip"
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
	conn *net.UDPConn

	// mu guards inboxes, and the pump sends to an inbox only while holding
	// it, so once unregister has returned no datagram reaches the inbox it
	// removed: its worker can register it for the next session.
	mu      sync.Mutex
	inboxes map[netip.AddrPort]chan []byte // by unmapped source address

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
		conn:     conn.(*net.UDPConn), // what ListenPacket makes for "udp"
		inboxes:  make(map[netip.AddrPort]chan []byte),
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
// surface as ordinary wire loss to the affected session. The send happens
// under sv.mu (see Server.mu); it never blocks, so holding the lock is
// cheap.
func (sv *Server) pump() {
	defer close(sv.pumpDone)
	buf := make([]byte, 64<<10)
	for {
		n, src, err := sv.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		sv.mu.Lock()
		if inbox := sv.inboxes[unmapped(src)]; inbox != nil {
			b := make([]byte, n)
			copy(b, buf[:n])
			select {
			case inbox <- b:
			default:
			}
		}
		sv.mu.Unlock()
	}
}

// unmapped is ap with an IPv4-mapped IPv6 address turned into the IPv4
// address it maps: a socket may report an IPv4 peer in either form.
func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// register routes the datagrams from key to inbox, after dropping what the
// inbox's previous session left in it: that session was unregistered, so
// nothing more arrives for it.
func (sv *Server) register(key netip.AddrPort, inbox chan []byte) {
	for len(inbox) > 0 {
		<-inbox
	}
	sv.mu.Lock()
	sv.inboxes[key] = inbox
	sv.mu.Unlock()
}

func (sv *Server) unregister(key netip.AddrPort) {
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
// socket and registering w's inbox for it. The client socket stays per
// session because its address is the session's mux key.
func (sv *Server) runSession(cfg SessionConfig, w *worker) (*SessionResult, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netlink: client socket: %w", err)
	}
	clientConn := conn.(*net.UDPConn)
	key := unmapped(clientConn.LocalAddr().(*net.UDPAddr).AddrPort())
	sv.register(key, w.inbox)
	env := &sessionEnv{
		dataConn: clientConn,
		// The ack lane writes through the SHARED socket; env.close must not
		// close it, so only the client socket is released here.
		ackConn:  sv.conn,
		dataAddr: sv.conn.LocalAddr(),
		ackAddr:  clientConn.LocalAddr(),
		recvData: inboxReader(w.inbox),
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
