package protocol

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/ioa"
)

// pinnedEndpoints holds one fnv64a per protocol and seed over everything
// TestEndpointsPinned drives, captured before the stop-and-wait endpoints
// shared their message queue and ack outbox.
var pinnedEndpoints = map[string]uint64{
	"seqnum/1":    0x17d0cd79c81db2d0,
	"seqnum/2":    0xc1891d986112e323,
	"seqnum/3":    0xe766d2bb1778d8f5,
	"altbit/1":    0xc8873e53606786fd,
	"altbit/2":    0xc7ae91039de17555,
	"altbit/3":    0x6b3ac99032d7af1e,
	"cntlinear/1": 0xac74b5c391a5108c,
	"cntlinear/2": 0xfc351a866c3cca86,
	"cntlinear/3": 0xf1d507b71931f1d8,
	"cntexp/1":    0x2f8286d7e73d7db4,
	"cntexp/2":    0xc7ecf00115461966,
	"cntexp/3":    0xf72187dacbedf9a8,
	"cntk2/1":     0x91b3e1536e09c713,
	"cntk2/2":     0xa3ee0ddb7035d09d,
	"cntk2/3":     0xa16502df8e65a935,
	"cntk5/1":     0x882b98175695707e,
	"cntk5/2":     0x5a7d9dcf8153f917,
	"cntk5/3":     0xd9753bca46bcfbba,
	"cheat1/1":    0x71b1a75aa1612422,
	"cheat1/2":    0x3f08a5c175311ff8,
	"cheat1/3":    0xff6d41d6b4b4c624,
	"cheat3/1":    0x71b1a75aa1612422,
	"cheat3/2":    0x3f08a5c175311ff8,
	"cheat3/3":    0xff6d41d6b4b4c624,
	"cntnobind/1": 0x2746ba94ece79e96,
	"cntnobind/2": 0xdeac1c9b70fc0a48,
	"cntnobind/3": 0x2825773fa147ec49,
	"livelock/1":  0x4128fc9b3a6d9d5b,
	"livelock/2":  0x9085eccdb0d20b92,
	"livelock/3":  0x2c9cc79a8ad7200c,
	"stabdl2/1":   0xc31b0fc496b20477,
	"stabdl2/2":   0xe9230d0119e1b081,
	"stabdl2/3":   0xaf1a301faedd0977,
	"stabnaive/1": 0x5f406a2208248da9,
	"stabnaive/2": 0x68fda3f60488b747,
	"stabnaive/3": 0xe4a09f8dc5ca32ee,
	"arrival/1":   0x73b1c9dd1a403245,
	"arrival/2":   0x558d3c8c1f45a315,
	"arrival/3":   0x7dfe3d47168359a1,
}

// TestEndpointsPinned holds every endpoint's observable behaviour to the
// values captured in pinnedEndpoints. For each protocol and seed it drives
// a pair from New, and one from every pair of corruption templates, through
// 200 random steps (step), hashing after each what the step showed, both
// state and control keys, both state sizes and Busy. It then clones the pair
// onto copies of its channels and drives the clone 50 more steps, runs the
// original in reliable rounds until it is idle (at most 400), hashing each
// round's packet, acks, delivered payloads and keys, and hashes the keys
// once more after Reset.
//
// Random schedules keep the transmitter's queue non-empty, so the reliable
// rounds are what drain a queue to its last message and an outbox to its
// last ack; a confirm that kept the payload of an emptied queue shows only
// there.
func TestEndpointsPinned(t *testing.T) {
	for _, p := range append(everyProtocol(), NewArrival()) {
		for seed := int64(1); seed <= 3; seed++ {
			name := p.Name() + "/" + strconv.FormatInt(seed, 10)
			got := pinEndpoints(p, seed)
			if want, ok := pinnedEndpoints[name]; !ok || got != want {
				t.Errorf("%q: %#x, // pinned %#x", name, got, want)
			}
		}
	}
}

// pinEndpoints returns the hash TestEndpointsPinned pins for p at seed.
func pinEndpoints(p Protocol, seed int64) uint64 {
	h := fnv.New64a()
	var b []byte
	run := func(tx Transmitter, rx Receiver, w wire) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			b = pinState(step(tx, rx, w, rng, i, b[:0]), tx, rx)
			h.Write(b)
		}

		cw := wire{data: w.data.Clone(), ack: w.ack.Clone()}
		tc, rc := tx.Clone(), rx.Clone()
		BindGenies(tc, rc, cw.data, cw.ack)
		for i := 200; i < 250; i++ {
			b = pinState(step(tc, rc, cw, rng, i, b[:0]), tc, rc)
			h.Write(b)
		}

		for round := 0; round < 400 && tx.Busy(); round++ {
			pk, ok := tx.NextPkt()
			b = fmt.Appendf(b[:0], "send %v %t; ", pk, ok)
			if ok {
				rx.DeliverPkt(pk)
			}
			for a, ok := rx.NextPkt(); ok; a, ok = rx.NextPkt() {
				b = fmt.Appendf(b, "ack %v; ", a)
				tx.DeliverPkt(a)
			}
			b = pinState(fmt.Appendf(b, "delivered %q; ", rx.TakeDelivered()), tx, rx)
			h.Write(b)
		}

		w.data.Reset(ioa.TtoR)
		w.ack.Reset(ioa.RtoT)
		tx.Reset()
		rx.Reset()
		h.Write(pinState(b[:0], tx, rx))
	}

	w := newWire()
	tx, rx := w.pair(p)
	run(tx, rx, w)
	if c, ok := p.(Corruptible); ok {
		space := c.Corruptions()
		for _, tt := range space.Transmitters {
			for _, rt := range space.Receivers {
				w := newWire()
				tc, rc := tt.Clone(), rt.Clone()
				BindGenies(tc, rc, w.data, w.ack)
				run(tc, rc, w)
			}
		}
	}
	return h.Sum64()
}

// pinState appends both endpoints' state and control keys, state sizes and
// the transmitter's Busy to b.
func pinState(b []byte, tx Transmitter, rx Receiver) []byte {
	b = tx.AppendStateKey(append(b, " t="...))
	b = rx.AppendStateKey(append(b, " r="...))
	b = AppendControlKey(append(b, " tc="...), tx)
	b = AppendControlKey(append(b, " rc="...), rx)
	return fmt.Appendf(b, " sizes=%d,%d busy=%t", tx.StateSize(), rx.StateSize(), tx.Busy())
}
