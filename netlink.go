package nonfifo

import (
	"net"
	"time"

	"repro/internal/netlink"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Real-socket transport (see internal/netlink): run the protocols over
// actual datagram sockets, with optional deterministic chaos injection.
type (
	// NetSender drives a transmitter over a datagram socket.
	NetSender = netlink.Sender
	// NetReceiver drives a receiver over a datagram socket.
	NetReceiver = netlink.Receiver
	// NetPair is a loopback sender/receiver pair.
	NetPair = netlink.Pair
	// SenderOption configures a NetSender.
	SenderOption = netlink.SenderOption
	// ChaosConn imposes seeded loss and reordering on a net.PacketConn —
	// the paper's non-FIFO physical layer on a real socket.
	ChaosConn = netlink.ChaosConn
	// ChaosConfig parameterises a ChaosConn.
	ChaosConfig = netlink.ChaosConfig
)

// Soak server (see internal/netlink): many concurrent lock-step sessions
// over real UDP, each recorded as a bit-for-bit replayable NFT trace.
type (
	// SoakServer muxes concurrent sessions over one UDP socket.
	SoakServer = netlink.Server
	// SoakSessionConfig parameterises one lock-step session.
	SoakSessionConfig = netlink.SessionConfig
	// SoakSessionResult carries a session's log, stats and verdicts.
	SoakSessionResult = netlink.SessionResult
	// SoakConfig parameterises a soak run.
	SoakConfig = netlink.SoakConfig
	// SoakReport aggregates a soak run.
	SoakReport = netlink.SoakReport
	// SoakOutcome summarises one soak session.
	SoakOutcome = netlink.SessionOutcome
)

// Sharded trace storage (see internal/trace): soak recordings packed into a
// fixed set of shard files, whose frames are the store's only index.
type (
	// ShardStore writes per-session trace logs into shard files.
	ShardStore = trace.ShardStore
	// ShardManifest indexes a shard directory.
	ShardManifest = trace.Manifest
	// ShardManifestEntry locates and summarises one recorded session.
	ShardManifestEntry = trace.ManifestEntry
)

// NewShardStore creates a shard directory with the given shard-file count.
// It refuses a directory that already holds a store.
func NewShardStore(dir string, shards int) (*ShardStore, error) {
	return trace.NewShardStore(dir, shards)
}

// ReadShardManifest rebuilds a shard directory's index by scanning its
// shard files.
func ReadShardManifest(dir string) (*ShardManifest, error) { return trace.ScanShards(dir) }

// ReadShardLog extracts one session's log from a shard directory.
func ReadShardLog(dir string, m *ShardManifest, session string) (*TraceLog, error) {
	return trace.ReadShardLog(dir, m, session)
}

// NewSoakServer opens a soak server on addr ("" for an ephemeral loopback
// port). Run sessions with its RunSession and RunSoak methods.
func NewSoakServer(addr string) (*SoakServer, error) { return netlink.NewServer(addr) }

// Socket-level errors.
var (
	// ErrNetClosed is returned by operations on a closed station.
	ErrNetClosed = netlink.ErrClosed
	// ErrFlushTimeout is returned when a flush deadline expires.
	ErrFlushTimeout = netlink.ErrFlushTimeout
)

// NewNetSender starts a sender for protocol p on conn, talking to remote.
func NewNetSender(p Protocol, conn net.PacketConn, remote net.Addr, opts ...SenderOption) *NetSender {
	return netlink.NewSender(p, conn, remote, opts...)
}

// NewNetReceiver starts a receiver for protocol p on conn.
func NewNetReceiver(p Protocol, conn net.PacketConn) *NetReceiver {
	return netlink.NewReceiver(p, conn)
}

// NewLoopbackPair wires a sender and receiver over fresh loopback UDP
// sockets; wrap (optional) intercepts each socket, e.g. with NewChaosConn.
func NewLoopbackPair(p Protocol, wrap func(net.PacketConn) net.PacketConn, opts ...SenderOption) (*NetPair, error) {
	return netlink.NewLoopbackPair(p, wrap, opts...)
}

// NewChaosConn wraps a socket with seeded loss and reordering.
func NewChaosConn(inner net.PacketConn, cfg ChaosConfig) *ChaosConn {
	return netlink.NewChaosConn(inner, cfg)
}

// WithResendInterval overrides a sender's retransmission pacing.
func WithResendInterval(d time.Duration) SenderOption { return netlink.WithResendInterval(d) }

// EncodePacket serialises a packet for the wire (see internal/wire).
func EncodePacket(p Packet) []byte { return wire.Encode(p) }

// DecodePacket parses a datagram produced by EncodePacket.
func DecodePacket(b []byte) (Packet, error) { return wire.Decode(b) }
