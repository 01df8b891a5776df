package netlink

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// ChaosConn wraps a net.PacketConn with seeded, deterministic loss,
// reordering and duplication on the *write* side: the non-FIFO physical
// layer of the paper, imposed on a real socket.
//
//   - With probability DropProb a written datagram is silently discarded
//     (an arbitrary delay that never ends).
//   - With probability HoldProb a written datagram is held back; a held
//     datagram is released after a later write, i.e. it overtakes —
//     reordering, the non-FIFO behaviour.
//   - With probability DupProb a written datagram passes through AND a copy
//     is held for later release — duplication, realised as a stale copy
//     arriving behind fresher traffic.
//
// Reads are passed through untouched, so wrapping both endpoints of a path
// perturbs both directions. The zero value of ChaosConfig is a transparent
// wrapper.
//
// The free-running stations (Sender/Receiver) use the net.PacketConn face
// and never learn a datagram's fate. The lock-step soak sessions
// (session.go) use WriteOutcome instead: the per-write fate report is what
// lets them lift every chaos outcome into the simulator's recorded
// decision/stale-delivery vocabulary, which is what makes live soak traces
// replayable.
type ChaosConn struct {
	inner net.PacketConn
	cfg   ChaosConfig

	mu   sync.Mutex
	rng  *rand.Rand
	held []heldPacket
}

// ChaosConfig parameterises a ChaosConn.
type ChaosConfig struct {
	// DropProb is the probability a written datagram is lost.
	DropProb float64
	// HoldProb is the probability a written datagram is delayed behind a
	// later one (reordering).
	HoldProb float64
	// DupProb is the probability a written datagram is delivered AND a
	// copy of it is held for later release (duplication).
	DupProb float64
	// Seed makes the chaos deterministic.
	Seed int64
}

// maxHeld bounds a ChaosConn's hold queue; beyond it datagrams pass through.
const maxHeld = 32

type heldPacket struct {
	b    []byte
	addr net.Addr
}

// WriteFate is the fate a ChaosConn assigned to one written datagram.
type WriteFate uint8

const (
	// FatePassed: the datagram was written through to the wire.
	FatePassed WriteFate = iota
	// FateDropped: the datagram was silently discarded.
	FateDropped
	// FateHeld: the datagram was held back for later release.
	FateHeld
	// FateDup: the datagram was written through AND a copy was held.
	FateDup
)

// String renders the fate for diagnostics.
func (f WriteFate) String() string {
	switch f {
	case FatePassed:
		return "passed"
	case FateDropped:
		return "dropped"
	case FateHeld:
		return "held"
	case FateDup:
		return "dup"
	default:
		return "fate(?)"
	}
}

// WriteResult reports what a ChaosConn did with one written datagram.
type WriteResult struct {
	// Fate is the written datagram's own fate.
	Fate WriteFate
	// Released holds the raw bytes of previously held datagrams written to
	// the wire *behind* this one (their overtaking realised). At most one
	// per write under the current release discipline.
	Released [][]byte
}

var _ net.PacketConn = (*ChaosConn)(nil)

// NewChaosConn wraps inner with the given chaos configuration.
func NewChaosConn(inner net.PacketConn, cfg ChaosConfig) *ChaosConn {
	c := new(ChaosConn)
	c.rebind(inner, cfg)
	return c
}

// rebind makes c the conn NewChaosConn(inner, cfg) returns, keeping its
// generator and hold queue storage: the generator is re-seeded in place,
// which leaves it as a new one from cfg.Seed, and the hold queue is
// emptied, so nothing a previous binding held is ever released. A soak
// worker rebinds its two conns for each session it runs.
func (c *ChaosConn) rebind(inner net.PacketConn, cfg ChaosConfig) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inner, c.cfg = inner, cfg
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		c.rng.Seed(cfg.Seed)
	}
	clear(c.held)
	c.held = c.held[:0]
}

// WriteTo applies the loss/reorder/duplication discipline, then writes.
func (c *ChaosConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	_, err := c.WriteOutcome(b, addr)
	return len(b), err
}

// WriteOutcome is WriteTo with a fate report: it applies the chaos
// discipline and tells the caller exactly what happened — the datagram's own
// fate plus any held datagrams released behind it. The lock-step soak
// sessions depend on the report to mirror the wire into the simulator's
// replayable vocabulary (pass → deliver, drop → drop, held → delay,
// release → stale delivery).
func (c *ChaosConn) WriteOutcome(b []byte, addr net.Addr) (WriteResult, error) {
	c.mu.Lock()
	roll := c.rng.Float64()
	var res WriteResult
	var release, dupCopy *heldPacket
	p := c.cfg.DropProb
	switch {
	case roll < p:
		c.mu.Unlock()
		res.Fate = FateDropped
		return res, nil // swallowed: an unbounded delay
	case roll < p+c.cfg.HoldProb && len(c.held) < maxHeld:
		cp := make([]byte, len(b))
		copy(cp, b)
		c.held = append(c.held, heldPacket{b: cp, addr: addr})
		res.Fate = FateHeld
	default:
		res.Fate = FatePassed
		// Passing through; maybe also release one held datagram behind
		// this one (it has now been overtaken — reordering realised). The
		// release roll precedes the dup copy's enqueue so a duplicate is
		// never released behind its own original write.
		if len(c.held) > 0 && c.rng.Float64() < 0.5 {
			release = &c.held[0]
			c.held = c.held[1:]
		}
		if roll < p+c.cfg.HoldProb+c.cfg.DupProb && len(c.held) < maxHeld {
			cp := make([]byte, len(b))
			copy(cp, b)
			dupCopy = &heldPacket{b: cp, addr: addr}
			res.Fate = FateDup
		}
	}
	if dupCopy != nil {
		c.held = append(c.held, *dupCopy)
	}
	c.mu.Unlock()

	if res.Fate == FateHeld {
		return res, nil
	}
	if _, err := c.inner.WriteTo(b, addr); err != nil {
		return res, err
	}
	if release != nil {
		res.Released = append(res.Released, release.b)
		_, _ = c.inner.WriteTo(release.b, release.addr)
	}
	return res, nil
}

// ReleaseOne pops the oldest held datagram and writes it to the wire,
// returning its raw bytes. The soak sessions use it to force progress when
// the transmitter is stuck waiting on a delayed copy, and to drain the hold
// queue at session end (every stale copy arrives at last). ok is false when
// nothing is held.
func (c *ChaosConn) ReleaseOne() (b []byte, ok bool) {
	c.mu.Lock()
	if len(c.held) == 0 {
		c.mu.Unlock()
		return nil, false
	}
	h := c.held[0]
	c.held = c.held[1:]
	c.mu.Unlock()
	_, _ = c.inner.WriteTo(h.b, h.addr)
	return h.b, true
}

// ReadFrom delegates to the wrapped socket.
func (c *ChaosConn) ReadFrom(b []byte) (int, net.Addr, error) { return c.inner.ReadFrom(b) }

// Close delegates to the wrapped socket.
func (c *ChaosConn) Close() error { return c.inner.Close() }

// LocalAddr delegates to the wrapped socket.
func (c *ChaosConn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// SetDeadline delegates to the wrapped socket.
func (c *ChaosConn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline delegates to the wrapped socket.
func (c *ChaosConn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline delegates to the wrapped socket.
func (c *ChaosConn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
