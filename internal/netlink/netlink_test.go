package netlink

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

const flushTimeout = 10 * time.Second

func collect(t *testing.T, out <-chan string, n int) []string {
	t.Helper()
	var got []string
	deadline := time.After(flushTimeout)
	for len(got) < n {
		select {
		case p, ok := <-out:
			if !ok {
				t.Fatalf("output closed after %d of %d payloads", len(got), n)
			}
			got = append(got, p)
		case <-deadline:
			t.Fatalf("timeout after %d of %d payloads", len(got), n)
		}
	}
	return got
}

func sendAll(t *testing.T, pair *Pair, n int) []string {
	t.Helper()
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("payload-%d", i)
		if err := pair.Sender.Send(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pair.Sender.Flush(flushTimeout); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestSeqnumOverLoopbackUDP(t *testing.T) {
	pair, err := NewLoopbackPair(protocol.NewSeqNum(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	want := sendAll(t, pair, 20)
	got := collect(t, pair.Receiver.Out(), len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

func TestAltbitOverCleanLoopback(t *testing.T) {
	// Loopback UDP is effectively FIFO and lossless at this rate, so even
	// the alternating bit protocol works.
	pair, err := NewLoopbackPair(protocol.NewAltBit(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	want := sendAll(t, pair, 10)
	got := collect(t, pair.Receiver.Out(), len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

func TestSeqnumSurvivesChaos(t *testing.T) {
	// 25% loss + 25% reordering on every datagram, both directions: the
	// unbounded-header protocol delivers everything in order regardless.
	seed := int64(0)
	wrap := func(c net.PacketConn) net.PacketConn {
		seed++
		return NewChaosConn(c, ChaosConfig{DropProb: 0.25, HoldProb: 0.25, Seed: seed})
	}
	pair, err := NewLoopbackPair(protocol.NewSeqNum(), wrap, WithResendInterval(500*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	want := sendAll(t, pair, 30)
	got := collect(t, pair.Receiver.Out(), len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

func TestUnboundedTransportsSurviveChaos(t *testing.T) {
	for _, p := range []protocol.Protocol{transport.New(0, 4), transport.NewGoBackN(0, 4)} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			seed := int64(100)
			wrap := func(c net.PacketConn) net.PacketConn {
				seed++
				return NewChaosConn(c, ChaosConfig{DropProb: 0.2, HoldProb: 0.2, Seed: seed})
			}
			pair, err := NewLoopbackPair(p, wrap, WithResendInterval(500*time.Microsecond))
			if err != nil {
				t.Fatal(err)
			}
			defer pair.Close()
			want := sendAll(t, pair, 16)
			got := collect(t, pair.Receiver.Out(), len(want))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivered %v, want %v", got, want)
				}
			}
		})
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	pair, err := NewLoopbackPair(protocol.NewSeqNum(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pair.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pair.Sender.Send("x"); err != ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	if err := pair.Sender.Flush(time.Second); err != ErrClosed {
		t.Fatalf("Flush after close = %v, want ErrClosed", err)
	}
}

func TestCloseIsIdempotentAndStopsGoroutines(t *testing.T) {
	pair, err := NewLoopbackPair(protocol.NewSeqNum(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = sendAll(t, pair, 3)
	if err := pair.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pair.Close(); err != nil {
		t.Fatal(err)
	}
	// The receiver's output channel must be closed after Close.
	for range pair.Receiver.Out() {
	}
}

func TestFlushTimeout(t *testing.T) {
	// A sender whose datagrams all vanish can never confirm.
	wrap := func(c net.PacketConn) net.PacketConn {
		return NewChaosConn(c, ChaosConfig{DropProb: 1.0, Seed: 1})
	}
	pair, err := NewLoopbackPair(protocol.NewSeqNum(), wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	if err := pair.Sender.Send("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := pair.Sender.Flush(50 * time.Millisecond); err != ErrFlushTimeout {
		t.Fatalf("Flush = %v, want ErrFlushTimeout", err)
	}
}

func TestFlushOnIdleSenderReturnsImmediately(t *testing.T) {
	pair, err := NewLoopbackPair(protocol.NewSeqNum(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	if err := pair.Sender.Flush(time.Second); err != nil {
		t.Fatalf("idle flush: %v", err)
	}
}

func TestChaosConnDropAll(t *testing.T) {
	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewChaosConn(inner, ChaosConfig{DropProb: 1.0})
	defer c.Close()
	n, err := c.WriteTo([]byte("x"), inner.LocalAddr())
	if err != nil || n != 1 {
		t.Fatalf("dropped write should report success: %d, %v", n, err)
	}
}

// TestChaosConnHoldAndFlush: a held write stays off the wire until
// ReleaseOne flushes it, and a second ReleaseOne finds nothing held.
func TestChaosConnHoldAndFlush(t *testing.T) {
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := NewChaosConn(a, ChaosConfig{HoldProb: 1.0, Seed: 3})
	defer c.Close()

	if _, err := c.WriteTo([]byte("held"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if len(c.held) != 1 {
		t.Fatalf("held = %d, want 1", len(c.held))
	}
	if got, ok := c.ReleaseOne(); !ok || string(got) != "held" {
		t.Fatalf("ReleaseOne = %q, %t; want \"held\", true", got, ok)
	}
	if got, ok := c.ReleaseOne(); ok {
		t.Fatalf("ReleaseOne on an empty hold queue = %q, true", got)
	}
	buf := make([]byte, 16)
	_ = b.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := b.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "held" {
		t.Fatalf("released datagram: %q, %v", buf[:n], err)
	}
}

// recordConn is a net.PacketConn whose writes are recorded, not sent.
// ChaosConn calls no other method on the conn it wraps.
type recordConn struct {
	net.PacketConn
	writes []string
}

func (c *recordConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	c.writes = append(c.writes, string(b))
	return len(b), nil
}

// TestChaosConnRebind: a ChaosConn holding datagrams, rebound to another
// conn with another seed, holds nothing and from then on deals the fates
// and releases a new ChaosConn with that seed deals over the same writes,
// writing only to the conn it was rebound to.
func TestChaosConnRebind(t *testing.T) {
	cfg := ChaosConfig{DropProb: 0.1, HoldProb: 0.4, DupProb: 0.2, Seed: 1}
	old := &recordConn{}
	c := NewChaosConn(old, cfg)
	for i := 0; len(c.held) < 3; i++ {
		if i == 100 {
			t.Fatalf("holding %d datagrams after %d writes", len(c.held), i)
		}
		if _, err := c.WriteOutcome([]byte(fmt.Sprintf("old-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Seed = 2
	inner, fresh := &recordConn{}, &recordConn{}
	c.rebind(inner, cfg)
	if n := len(c.held); n != 0 {
		t.Fatalf("rebound conn holds %d datagrams, want 0", n)
	}
	f := NewChaosConn(fresh, cfg)
	oldWrites := len(old.writes)
	for i := 0; i < 200; i++ {
		b := []byte(fmt.Sprintf("new-%d", i))
		got, err := c.WriteOutcome(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.WriteOutcome(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("write %d: rebound conn dealt %v releasing %q, a new conn %v releasing %q",
				i, got.Fate, got.Released, want.Fate, want.Released)
		}
	}
	for {
		got, gok := c.ReleaseOne()
		want, wok := f.ReleaseOne()
		if gok != wok || !bytes.Equal(got, want) {
			t.Fatalf("final release: rebound conn %q (%v), a new conn %q (%v)", got, gok, want, wok)
		}
		if !gok {
			break
		}
	}
	if !reflect.DeepEqual(inner.writes, fresh.writes) {
		t.Fatalf("rebound conn wrote %d datagrams, a new conn %d, or in another order", len(inner.writes), len(fresh.writes))
	}
	if len(old.writes) != oldWrites {
		t.Fatalf("rebound conn wrote %d datagrams to the conn it left", len(old.writes)-oldWrites)
	}
}

func TestChaosConnTransparentByDefault(t *testing.T) {
	a, _ := net.ListenPacket("udp", "127.0.0.1:0")
	b, _ := net.ListenPacket("udp", "127.0.0.1:0")
	defer b.Close()
	c := NewChaosConn(a, ChaosConfig{})
	defer c.Close()
	if _, err := c.WriteTo([]byte("pass"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	_ = b.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := b.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "pass" {
		t.Fatalf("got %q, %v", buf[:n], err)
	}
	if c.LocalAddr() == nil {
		t.Fatal("LocalAddr delegation broken")
	}
	if err := c.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
}

func TestReceiverSurvivesGarbageDatagrams(t *testing.T) {
	pair, err := NewLoopbackPair(protocol.NewSeqNum(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// Blast undecodable garbage straight at the receiver's socket.
	g, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	raddr := pair.Receiver.conn.LocalAddr()
	for i := 0; i < 20; i++ {
		if _, err := g.WriteTo([]byte{0xff, 0xff, 0xff, 0x00, byte(i)}, raddr); err != nil {
			t.Fatal(err)
		}
	}
	// Real traffic still goes through.
	want := sendAll(t, pair, 5)
	got := collect(t, pair.Receiver.Out(), len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

func TestSenderSurvivesGarbageAcks(t *testing.T) {
	pair, err := NewLoopbackPair(protocol.NewSeqNum(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	g, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	saddr := pair.Sender.conn.LocalAddr()
	for i := 0; i < 20; i++ {
		if _, err := g.WriteTo([]byte{0x80, 0x80}, saddr); err != nil {
			t.Fatal(err)
		}
	}
	want := sendAll(t, pair, 5)
	got := collect(t, pair.Receiver.Out(), len(want))
	if len(got) != len(want) {
		t.Fatalf("delivered %v", got)
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		pair, err := NewLoopbackPair(protocol.NewSeqNum(), nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = sendAll(t, pair, 2)
		collect(t, pair.Receiver.Out(), 2)
		if err := pair.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Allow the runtime a moment to reap exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}
