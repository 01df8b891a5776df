package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
)

// registered returns every protocol value the module registers: the
// protocol and transport registries and the specimens kept out of them.
func registered() []protocol.Protocol {
	ps := []protocol.Protocol{protocol.NewLivelock(), protocol.NewCntNoBind(), protocol.NewArrival()}
	reg := protocol.Registry()
	for _, name := range protocol.Names() {
		ps = append(ps, reg[name])
	}
	treg := transport.Registry()
	for _, name := range transport.Names() {
		ps = append(ps, treg[name])
	}
	return ps
}

// TestProtocolsComparable: Reset compares a run's protocol with the last
// one with ==, which panics on a protocol type that is not comparable.
func TestProtocolsComparable(t *testing.T) {
	for _, p := range registered() {
		if !reflect.TypeOf(p).Comparable() {
			t.Errorf("%s: protocol type %T is not comparable", p.Name(), p)
		}
	}
}

// TestResetRecordsWhatNewRunnerRecords: a reused runner's next run is a new
// runner's. Over seeded random schedules, a runner reset after a run of
// another protocol, after a run of the same protocol, after a long run that
// sent many headers, after a corrupted start, and a forked runner reset
// after the fork's run all record the trace-log bytes, show the endpoint
// keys and report the metrics that NewRunner's run of the same schedule
// does, and list only that run's headers.
func TestResetRecordsWhatNewRunnerRecords(t *testing.T) {
	ps := registered()
	for seed := int64(1); seed <= 4; seed++ {
		for i, p := range ps {
			prev := ps[(i+1)%len(ps)]
			r := NewRunner(Config{Protocol: prev})
			drive(r, rand.New(rand.NewSource(seed)), 40)
			resetMatchesNew(t, fmt.Sprintf("%s after %s", p.Name(), prev.Name()), r, p, seed)

			r = NewRunner(Config{Protocol: p})
			drive(r, rand.New(rand.NewSource(seed)), 3000)
			listed := len(r.hdrs)
			if distinct := r.Result().Metrics.HeadersUsed; listed > 2*max(distinct, 32) {
				t.Fatalf("%s: a long run lists %d headers for %d distinct ones", p.Name(), listed, distinct)
			}
			resetMatchesNew(t, p.Name()+" after a long run", r, p, seed)

			r = NewRunner(Config{Protocol: p})
			t0, r0 := r.T, r.R
			drive(r, rand.New(rand.NewSource(-seed)), 40)
			resetMatchesNew(t, p.Name()+" after itself", r, p, seed)
			if r.T != t0 || r.R != r0 {
				t.Fatalf("%s: Reset after a run of the same protocol built new endpoints", p.Name())
			}

			if c, ok := p.(protocol.Corruptible); ok {
				space := c.Corruptions()
				for ti := range space.Transmitters {
					for ri := range space.Receivers {
						r := NewRunner(Config{Protocol: p})
						if err := r.CorruptStart(ti, ri); err != nil {
							t.Fatal(err)
						}
						drive(r, rand.New(rand.NewSource(seed)), 40)
						resetMatchesNew(t, fmt.Sprintf("%s after corrupted start t%d r%d", p.Name(), ti, ri), r, p, seed)
					}
				}
			}

			r = NewRunner(Config{Protocol: p})
			drive(r, rand.New(rand.NewSource(seed)), 20)
			f := r.Fork(nil, nil)
			drive(f, rand.New(rand.NewSource(seed+1)), 20)
			resetMatchesNew(t, p.Name()+" forked", f, p, seed)
		}
	}
}

// resetMatchesNew resets r for a run of p and drives it through a seeded
// schedule, drives a new runner of p through the same schedule, and fails
// the test unless both record the same log and show the same keys.
func resetMatchesNew(t *testing.T, label string, r *Runner, p protocol.Protocol, seed int64) {
	t.Helper()
	run := func(start func(Config) *Runner) ([]byte, []byte) {
		rng := rand.New(rand.NewSource(seed))
		decisions := func() channel.Policy {
			d := make([]trace.Decision, 64)
			for i := range d {
				d[i] = trace.Decision(1 + rng.Intn(3))
			}
			return channel.FromDecisions(d, channel.Delay)
		}
		l := trace.NewLog(nil)
		rr := start(Config{Protocol: p, DataPolicy: decisions(), AckPolicy: decisions(), TraceLog: l})
		keys := drive(rr, rng, 80)
		var b bytes.Buffer
		if err := l.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes(), keys
	}
	gotLog, gotKeys := run(func(cfg Config) *Runner { r.Reset(cfg); return r })
	var fresh *Runner
	wantLog, wantKeys := run(func(cfg Config) *Runner { fresh = NewRunner(cfg); return fresh })
	if !bytes.Equal(gotLog, wantLog) {
		t.Fatalf("%s, seed %d: the reset runner recorded a log of %d bytes, a new runner %d bytes that differ", label, seed, len(gotLog), len(wantLog))
	}
	if !bytes.Equal(gotKeys, wantKeys) {
		t.Fatalf("%s, seed %d: the reset runner's endpoints showed keys\n%s\na new runner's\n%s", label, seed, gotKeys, wantKeys)
	}
	if !slices.Equal(r.hdrs, fresh.hdrs) {
		t.Fatalf("%s, seed %d: the reset runner lists headers %q, a new runner %q", label, seed, r.hdrs, fresh.hdrs)
	}
	if got, want := r.Result(), fresh.Result(); !reflect.DeepEqual(got.Metrics, want.Metrics) {
		t.Fatalf("%s, seed %d: the reset runner reports %+v, a new runner %+v", label, seed, got.Metrics, want.Metrics)
	}
}

// drive runs n random runner operations — submits, transmit steps, ack
// drains, stale deliveries and drops — and returns both endpoints' keys
// after each.
func drive(r *Runner, rng *rand.Rand, n int) []byte {
	var keys []byte
	stale := func(ch *channel.NonFIFO, d ioa.Dir, drop bool) {
		if n := ch.DistinctPackets(); n > 0 {
			p := ch.PacketAt(rng.Intn(n))
			if drop {
				_ = r.DropStale(d, p)
			} else {
				_ = r.DeliverStale(d, p)
			}
		}
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(7) {
		case 0:
			r.SubmitMsg(protocol.Payload(r.SentMessages()))
		case 1, 2:
			r.StepTransmit()
		case 3:
			r.DrainAcks()
		case 4:
			stale(r.ChData, ioa.TtoR, false)
		case 5:
			stale(r.ChAck, ioa.RtoT, false)
		case 6:
			stale(r.ChData, ioa.TtoR, true)
		}
		keys = r.T.AppendStateKey(keys)
		keys = append(r.R.AppendStateKey(append(keys, ' ')), '\n')
	}
	return keys
}
