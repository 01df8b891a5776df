// Package wire encodes packets for transmission over a real network.
//
// The simulation layers of this repo move ioa.Packet values in memory; to
// run a data link protocol over an actual datagram socket (internal/netlink)
// the packet must cross the wire as bytes. The format is deliberately
// minimal and self-describing:
//
//	uvarint headerLen | header bytes | payload bytes
//
// One datagram carries one packet, so no outer framing is needed; the
// payload extends to the end of the datagram.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ioa"
)

// MaxHeaderLen bounds the encoded header length; decoding rejects anything
// larger. Real headers here are a few bytes ("d12", "c4:1"); the bound
// exists to fail fast on corrupt datagrams.
const MaxHeaderLen = 1 << 10

// ErrTruncated is wrapped by decode errors for short datagrams.
var ErrTruncated = errors.New("wire: truncated packet")

// Encode serialises a packet into a fresh byte slice.
func Encode(p ioa.Packet) []byte {
	return Append(make([]byte, 0, binary.MaxVarintLen64+len(p.Header)+len(p.Payload)), p)
}

// Append appends a packet's encoding to dst and returns the extended
// slice, so a sender that reuses one buffer encodes without allocating.
func Append(dst []byte, p ioa.Packet) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.Header)))
	dst = append(dst, p.Header...)
	return append(dst, p.Payload...)
}

// Decode parses a datagram produced by Encode.
func Decode(b []byte) (ioa.Packet, error) {
	hlen, n := binary.Uvarint(b)
	if n <= 0 {
		return ioa.Packet{}, fmt.Errorf("%w: bad header length varint", ErrTruncated)
	}
	if hlen > MaxHeaderLen {
		return ioa.Packet{}, fmt.Errorf("wire: header length %d exceeds limit %d", hlen, MaxHeaderLen)
	}
	rest := b[n:]
	if uint64(len(rest)) < hlen {
		return ioa.Packet{}, fmt.Errorf("%w: header length %d, %d bytes left", ErrTruncated, hlen, len(rest))
	}
	return ioa.Packet{
		Header:  string(rest[:hlen]),
		Payload: string(rest[hlen:]),
	}, nil
}
