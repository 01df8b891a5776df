package sim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

func runProtocol(t *testing.T, p protocol.Protocol, n int, cfgMod func(*Config)) Result {
	t.Helper()
	cfg := Config{Protocol: p, RecordTrace: true}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	res := NewRunner(cfg).Run(n)
	if res.Err != nil {
		t.Fatalf("%s: run failed: %v", p.Name(), res.Err)
	}
	return res
}

func TestAllProtocolsValidOverReliableChannel(t *testing.T) {
	reg := protocol.Registry()
	for _, name := range protocol.Names() {
		p := reg[name]
		t.Run(p.Name(), func(t *testing.T) {
			res := runProtocol(t, p, 10, nil)
			if len(res.Delivered) != 10 {
				t.Fatalf("delivered %d messages, want 10", len(res.Delivered))
			}
			if err := ioa.CheckValid(res.Trace); err != nil {
				t.Fatalf("trace invalid: %v\n%s", err, res.Trace)
			}
		})
	}
}

func TestDeliveredPayloadsInOrder(t *testing.T) {
	res := runProtocol(t, protocol.NewSeqNum(), 5, nil)
	want := []string{"msg-0", "msg-1", "msg-2", "msg-3", "msg-4"}
	for i, w := range want {
		if res.Delivered[i] != w {
			t.Fatalf("delivered %v, want %v", res.Delivered, want)
		}
	}
}

func TestPerfectChannelPacketCounts(t *testing.T) {
	// On a reliable channel, altbit and seqnum deliver each message with
	// exactly one data packet.
	for _, p := range []protocol.Protocol{protocol.NewAltBit(), protocol.NewSeqNum()} {
		res := runProtocol(t, p, 4, nil)
		for i, c := range res.Metrics.DataPacketsPerMessage {
			if c != 1 {
				t.Fatalf("%s: message %d used %d data packets, want 1 (%v)",
					p.Name(), i, c, res.Metrics.DataPacketsPerMessage)
			}
		}
	}
}

func TestHeadersUsedMetric(t *testing.T) {
	altbit := runProtocol(t, protocol.NewAltBit(), 8, nil)
	if altbit.Metrics.HeadersUsed != 4 {
		t.Fatalf("altbit headers = %d, want 4", altbit.Metrics.HeadersUsed)
	}
	seqnum := runProtocol(t, protocol.NewSeqNum(), 8, nil)
	if seqnum.Metrics.HeadersUsed != 16 { // 8 data + 8 ack headers
		t.Fatalf("seqnum headers = %d, want 16", seqnum.Metrics.HeadersUsed)
	}
}

func TestLossySafetyAndLiveness(t *testing.T) {
	// Drop every 3rd packet on both channels; every registry protocol
	// must still deliver all messages with a valid trace. (DropEvery is
	// deterministic, so the run is reproducible.)
	reg := protocol.Registry()
	for _, name := range protocol.Names() {
		p := reg[name]
		t.Run(p.Name(), func(t *testing.T) {
			res := runProtocol(t, p, 6, func(c *Config) {
				c.DataPolicy = channel.DropEvery(3)
				c.AckPolicy = channel.DropEvery(4)
			})
			if len(res.Delivered) != 6 {
				t.Fatalf("delivered %d of 6", len(res.Delivered))
			}
			if err := ioa.CheckValid(res.Trace); err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
		})
	}
}

func TestProbabilisticChannelSafetyAndLiveness(t *testing.T) {
	// The probabilistic physical layer (PL2p) with q=0.3 on data, q=0.2 on
	// acks. Counting protocols must survive the accumulating stale copies.
	reg := protocol.Registry()
	for _, name := range protocol.Names() {
		p := reg[name]
		t.Run(p.Name(), func(t *testing.T) {
			res := runProtocol(t, p, 6, func(c *Config) {
				c.DataPolicy = channel.Probabilistic(0.3, rand.New(rand.NewSource(7)))
				c.AckPolicy = channel.Probabilistic(0.2, rand.New(rand.NewSource(8)))
			})
			if len(res.Delivered) != 6 {
				t.Fatalf("delivered %d of 6", len(res.Delivered))
			}
			if err := ioa.CheckValid(res.Trace); err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
		})
	}
}

func TestProbabilisticDeterministicUnderSeed(t *testing.T) {
	run := func() Metrics {
		return NewRunner(Config{
			Protocol:   protocol.NewCntLinear(),
			DataPolicy: channel.Probabilistic(0.4, rand.New(rand.NewSource(3))),
			AckPolicy:  channel.Probabilistic(0.4, rand.New(rand.NewSource(4))),
		}).Run(5).Metrics
	}
	a, b := run(), run()
	if a.TotalDataPackets != b.TotalDataPackets || a.TotalAckPackets != b.TotalAckPackets {
		t.Fatalf("same seeds gave different runs: %+v vs %+v", a, b)
	}
}

func TestCntLinearCostGrowsWithStrandedCopies(t *testing.T) {
	// Delay the first 8 data packets: they become stale copies, and the
	// counting receiver's later thresholds must rise accordingly.
	res := runProtocol(t, protocol.NewCntLinear(), 4, func(c *Config) {
		c.DataPolicy = channel.DelayFirst(8)
	})
	ppm := res.Metrics.DataPacketsPerMessage
	// Message 0 pays the 8 delayed copies plus one delivered: ≥ 9.
	if ppm[0] < 9 {
		t.Fatalf("message 0 cost %d, want ≥ 9 (%v)", ppm[0], ppm)
	}
	// Message 2 is the next same-bit phase: it faces 8 stale copies and
	// must send ≥ 9 packets.
	if ppm[2] < 9 {
		t.Fatalf("message 2 cost %d, want ≥ 9 (%v)", ppm[2], ppm)
	}
	if err := ioa.CheckValid(res.Trace); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

func TestStalledRunReportsErrStalled(t *testing.T) {
	// Dropping every packet on the data channel makes delivery impossible;
	// the run must fail with ErrStalled rather than spin forever.
	res := NewRunner(Config{
		Protocol:   protocol.NewAltBit(),
		DataPolicy: channel.DropEvery(1),
		StepBudget: 500,
	}).Run(1)
	if res.Err == nil || !errors.Is(res.Err, ErrStalled) {
		t.Fatalf("expected ErrStalled, got %v", res.Err)
	}
}

func TestDeliverStaleReplaysInTransitCopy(t *testing.T) {
	// Delay altbit's first data packet, finish two messages, then replay
	// the stale copy: the receiver (wrongly) delivers it, and the trace
	// checker catches the DL1 violation. This is the E0 mechanism at the
	// runner level.
	r := NewRunner(Config{
		Protocol:    protocol.NewAltBit(),
		DataPolicy:  channel.DelayFirst(1),
		RecordTrace: true,
	})
	if err := r.RunMessage("m0"); err != nil {
		t.Fatal(err)
	}
	if err := r.RunMessage("m1"); err != nil {
		t.Fatal(err)
	}
	stale := ioa.Packet{Header: "d0", Payload: "m0"}
	if r.ChData.Count(stale) != 1 {
		t.Fatalf("expected one stale d0 copy, channel = %s", r.ChData.Key())
	}
	if err := r.DeliverStale(ioa.TtoR, stale); err != nil {
		t.Fatal(err)
	}
	res := r.Result()
	if len(res.Delivered) != 3 {
		t.Fatalf("replay should have caused a third delivery, got %v", res.Delivered)
	}
	err := ioa.CheckSafety(res.Trace)
	if err == nil {
		t.Fatal("checker accepted the invalid execution")
	}
	if v, _ := ioa.AsViolation(err); v.Property != "DL1" {
		t.Fatalf("expected DL1 violation, got %v", err)
	}
}

func TestDeliverStaleRejectsAbsentCopy(t *testing.T) {
	r := NewRunner(Config{Protocol: protocol.NewAltBit()})
	if err := r.DeliverStale(ioa.TtoR, ioa.Packet{Header: "d0"}); err == nil {
		t.Fatal("DeliverStale of an absent packet must fail (PL1)")
	}
	if err := r.DeliverStale(ioa.Dir(99), ioa.Packet{}); err == nil {
		t.Fatal("DeliverStale with bad direction must fail")
	}
}

func TestTraceRecordingOptional(t *testing.T) {
	res := NewRunner(Config{Protocol: protocol.NewSeqNum()}).Run(3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Trace != nil {
		t.Fatal("trace should be nil when RecordTrace is false")
	}
	if res.Metrics.TotalDataPackets == 0 {
		t.Fatal("metrics must be collected even without trace recording")
	}
}

func TestMetricsInTransitAndState(t *testing.T) {
	res := runProtocol(t, protocol.NewCntLinear(), 3, func(c *Config) {
		c.DataPolicy = channel.DelayFirst(5)
	})
	if res.Metrics.MaxInTransitData < 5 {
		t.Fatalf("MaxInTransitData = %d, want ≥ 5", res.Metrics.MaxInTransitData)
	}
	if res.Metrics.MaxStateSize <= 0 {
		t.Fatal("MaxStateSize not sampled")
	}
}

func TestConstantPayloadConvention(t *testing.T) {
	// The paper's "all messages are the same" convention: same payload for
	// every message; the trace must still check out (IDs disambiguate).
	res := runProtocol(t, protocol.NewCntLinear(), 5, func(c *Config) {
		c.Payload = func(int) string { return "m" }
	})
	if err := ioa.CheckValid(res.Trace); err != nil {
		t.Fatalf("constant-payload trace invalid: %v", err)
	}
	for _, d := range res.Delivered {
		if d != "m" {
			t.Fatalf("delivered %v", res.Delivered)
		}
	}
}

func TestTraceCountsMatchMetrics(t *testing.T) {
	res := runProtocol(t, protocol.NewCntExp(), 4, func(c *Config) {
		c.DataPolicy = channel.DropEvery(5)
	})
	c := res.Trace.Count()
	if c.SPtoR != res.Metrics.TotalDataPackets {
		t.Fatalf("trace sp^t→r=%d, metrics=%d", c.SPtoR, res.Metrics.TotalDataPackets)
	}
	if c.SPtoT != res.Metrics.TotalAckPackets {
		t.Fatalf("trace sp^r→t=%d, metrics=%d", c.SPtoT, res.Metrics.TotalAckPackets)
	}
	if c.SM != 4 || c.RM != 4 {
		t.Fatalf("sm=%d rm=%d", c.SM, c.RM)
	}
	sum := 0
	for _, n := range res.Metrics.DataPacketsPerMessage {
		sum += n
	}
	if sum != res.Metrics.TotalDataPackets {
		t.Fatalf("per-message sum %d != total %d", sum, res.Metrics.TotalDataPackets)
	}
}

func TestRunnerTraceSatisfiesPL1Always(t *testing.T) {
	// Whatever the policy mix, the recorded trace must satisfy PL1 on both
	// channels: the channel construction guarantees it.
	policies := []func() channel.Policy{
		channel.Reliable,
		func() channel.Policy { return channel.DropEvery(2) },
		func() channel.Policy { return channel.DelayFirst(7) },
		func() channel.Policy { return channel.Probabilistic(0.5, rand.New(rand.NewSource(11))) },
	}
	for _, mk := range policies {
		res := runProtocol(t, protocol.NewSeqNum(), 4, func(c *Config) {
			c.DataPolicy = mk()
			c.AckPolicy = mk()
		})
		if err := ioa.CheckPL1(res.Trace, ioa.TtoR); err != nil {
			t.Fatalf("PL1 t→r: %v", err)
		}
		if err := ioa.CheckPL1(res.Trace, ioa.RtoT); err != nil {
			t.Fatalf("PL1 r→t: %v", err)
		}
	}
}

func TestCntExpExponentialCostVisibleInMetrics(t *testing.T) {
	res := runProtocol(t, protocol.NewCntExp(), 10, nil)
	ppm := res.Metrics.DataPacketsPerMessage
	if ppm[8] < 4*ppm[4] {
		t.Fatalf("cntexp per-message cost not exponential: %v", ppm)
	}
}

func TestRunPartialResultOnError(t *testing.T) {
	res := NewRunner(Config{
		Protocol:   protocol.NewAltBit(),
		DataPolicy: channel.DropEvery(1),
		StepBudget: 100,
	}).Run(3)
	if res.Err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(res.Err.Error(), "message 0") {
		t.Fatalf("error should identify the failing message: %v", res.Err)
	}
	if res.Metrics.TotalDataPackets == 0 {
		t.Fatal("partial metrics should be available")
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRunner(Config{Protocol: protocol.NewCntLinear(), RecordTrace: true})
	if err := r.RunMessage("m0"); err != nil {
		t.Fatal(err)
	}
	f := r.Fork(nil, nil)
	if err := f.RunMessage("m1"); err != nil {
		t.Fatal(err)
	}
	if len(f.Delivered()) != 2 || len(r.Delivered()) != 1 {
		t.Fatalf("fork not independent: fork=%v orig=%v", f.Delivered(), r.Delivered())
	}
	if protocol.StateKey(r.T) == protocol.StateKey(f.T) {
		t.Fatal("fork transmitter state should have diverged")
	}
	// The original's trace must be untouched by the fork's activity.
	if err := ioa.CheckSemiValid(r.Recorder().Trace()); err == nil {
		// r has sm == rm == 1, so semi-valid must FAIL (needs sm=rm+1).
		_ = err
	}
	if got := r.Recorder().Trace().Count(); got.SM != 1 {
		t.Fatalf("original trace mutated by fork: %+v", got)
	}
}

func TestForkRebindsGenies(t *testing.T) {
	// Strand 3 stale data copies, fork, and let the fork deliver the next
	// same-bit message over a reliable channel: if the fork's receiver
	// still consulted the ORIGINAL channel its stale snapshot would be
	// wrong once the two channels diverge. We make them diverge by
	// delivering the original's stale copies before the fork's phase
	// starts.
	r := NewRunner(Config{Protocol: protocol.NewCntLinear(), DataPolicy: channel.DelayFirst(3)})
	if err := r.RunMessage("m0"); err != nil {
		t.Fatal(err)
	}
	f := r.Fork(nil, nil)
	// Drain the ORIGINAL channel's stale copies.
	for _, p := range r.ChData.Packets() {
		for r.ChData.Count(p) > 0 {
			if err := r.DeliverStale(ioa.TtoR, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r.ChData.InTransit() != 0 || f.ChData.InTransit() != 3 {
		t.Fatalf("channel divergence failed: orig=%d fork=%d", r.ChData.InTransit(), f.ChData.InTransit())
	}
	// The fork delivers m1 (bit 1) then m2 (bit 0). m2's receiver snapshot
	// must see the FORK's 3 stale c0 copies, so m2 costs ≥ 4 data packets.
	if err := f.RunMessage("m1"); err != nil {
		t.Fatal(err)
	}
	if err := f.RunMessage("m2"); err != nil {
		t.Fatal(err)
	}
	ppm := f.Result().Metrics.DataPacketsPerMessage
	if ppm[2] < 4 {
		t.Fatalf("fork receiver consulted the wrong genie: m2 cost %d, want ≥ 4 (%v)", ppm[2], ppm)
	}
}

func TestForkPoliciesIndependent(t *testing.T) {
	r := NewRunner(Config{Protocol: protocol.NewSeqNum(), DataPolicy: channel.DelayAll()})
	f := r.Fork(nil, nil) // reliable fork
	if err := f.RunMessage("m0"); err != nil {
		t.Fatalf("fork with reliable policy should deliver: %v", err)
	}
	r.SetPolicies(channel.Reliable(), nil)
	if err := r.RunMessage("m0"); err != nil {
		t.Fatalf("SetPolicies should take effect: %v", err)
	}
}

// randomPolicy builds a deterministic policy from a byte script: each sent
// packet's fate is chosen by the next byte (delay/drop/deliver). This is a
// property-based channel adversary: arbitrary loss/delay schedules.
func randomPolicy(script []byte) channel.Policy {
	i := 0
	return channel.PolicyFunc(func(ioa.Packet) channel.Decision {
		if i >= len(script) {
			return channel.DeliverNow
		}
		b := script[i]
		i++
		switch b % 4 {
		case 0:
			return channel.Delay
		case 1:
			return channel.Drop
		default:
			return channel.DeliverNow
		}
	})
}

// TestQuickSafetyUnderArbitrarySchedules: whatever loss/delay schedule the
// channel follows, the safe protocols' recorded traces must satisfy the
// safety properties. (Liveness may fail — a hostile schedule can starve the
// run — so budget exhaustion is tolerated; safety must hold on the partial
// trace regardless.)
func TestQuickSafetyUnderArbitrarySchedules(t *testing.T) {
	protocols := []protocol.Protocol{
		protocol.NewSeqNum(),
		protocol.NewCntLinear(),
		protocol.NewCntExp(),
	}
	f := func(dataScript, ackScript []byte, pick uint8) bool {
		p := protocols[int(pick)%len(protocols)]
		r := NewRunner(Config{
			Protocol:    p,
			DataPolicy:  randomPolicy(dataScript),
			AckPolicy:   randomPolicy(ackScript),
			StepBudget:  4096,
			RecordTrace: true,
		})
		res := r.Run(3)
		// res.Err may be ErrStalled under hostile schedules: fine.
		return ioa.CheckSafety(res.Trace) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeliveredIsPrefixOfSent: under any schedule, the delivered
// payload sequence of a safe protocol is a prefix of the submitted one.
func TestQuickDeliveredIsPrefixOfSent(t *testing.T) {
	f := func(dataScript []byte) bool {
		r := NewRunner(Config{
			Protocol:   protocol.NewSeqNum(),
			DataPolicy: randomPolicy(dataScript),
			StepBudget: 4096,
		})
		res := r.Run(4)
		want := []string{"msg-0", "msg-1", "msg-2", "msg-3"}
		if len(res.Delivered) > len(want) {
			return false
		}
		for i, d := range res.Delivered {
			if d != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForkOfFork(t *testing.T) {
	r := NewRunner(Config{Protocol: protocol.NewCntLinear(), DataPolicy: channel.DelayFirst(2), RecordTrace: true})
	if err := r.RunMessage("m0"); err != nil {
		t.Fatal(err)
	}
	f1 := r.Fork(nil, nil)
	if err := f1.RunMessage("m1"); err != nil {
		t.Fatal(err)
	}
	f2 := f1.Fork(nil, nil)
	if err := f2.RunMessage("m2"); err != nil {
		t.Fatal(err)
	}
	if len(r.Delivered()) != 1 || len(f1.Delivered()) != 2 || len(f2.Delivered()) != 3 {
		t.Fatalf("fork chain broken: %d/%d/%d",
			len(r.Delivered()), len(f1.Delivered()), len(f2.Delivered()))
	}
	if err := ioa.CheckValid(f2.Result().Trace); err != nil {
		t.Fatalf("grandchild trace invalid: %v", err)
	}
}

func TestSetPoliciesNilKeepsCurrent(t *testing.T) {
	r := NewRunner(Config{Protocol: protocol.NewSeqNum(), DataPolicy: channel.DelayAll()})
	r.SetPolicies(nil, nil) // no-op
	r.SubmitMsg("m")
	if r.StepTransmit(); r.ChData.InTransit() != 1 {
		t.Fatal("nil SetPolicies should keep the delaying policy")
	}
	r.SetPolicies(channel.Reliable(), nil)
	if err := r.RunToIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestSentMessagesCounter(t *testing.T) {
	r := NewRunner(Config{Protocol: protocol.NewSeqNum()})
	r.SubmitMsg("a")
	r.SubmitMsg("b")
	if r.SentMessages() != 2 {
		t.Fatalf("SentMessages = %d", r.SentMessages())
	}
}

// TestSoakLongRun exercises the unbounded-header protocols over a long
// probabilistic run: stability, monotone counters, valid trace.
func TestSoakLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, p := range []protocol.Protocol{protocol.NewSeqNum()} {
		r := NewRunner(Config{
			Protocol:    p,
			DataPolicy:  channel.Probabilistic(0.3, rand.New(rand.NewSource(99))),
			AckPolicy:   channel.Probabilistic(0.3, rand.New(rand.NewSource(100))),
			RecordTrace: true,
		})
		res := r.Run(500)
		if res.Err != nil {
			t.Fatalf("%s: %v", p.Name(), res.Err)
		}
		if len(res.Delivered) != 500 {
			t.Fatalf("%s: delivered %d", p.Name(), len(res.Delivered))
		}
		if err := ioa.CheckValid(res.Trace); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		// The naive protocol's packet bill stays linear even here.
		if res.Metrics.TotalDataPackets > 5*500 {
			t.Fatalf("%s: %d packets for 500 messages", p.Name(), res.Metrics.TotalDataPackets)
		}
	}
}

// TestVersionAdvancesOnEveryStart pins Version's contract on the mutations
// that start a run: a fresh runner reads non-zero (so a zero-valued cache
// never matches it), and Reset, a corrupted start and each poison packet
// advance the counter, since each may change the joint configuration.
func TestVersionAdvancesOnEveryStart(t *testing.T) {
	p := protocol.NewStabDL(2)
	r := NewRunner(Config{Protocol: p})
	v := r.Version()
	if v == 0 {
		t.Error("a fresh runner's Version is 0")
	}
	space := p.Corruptions()
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"Reset", func() error { r.Reset(Config{Protocol: p}); return nil }},
		{"CorruptStart", func() error { return r.CorruptStart(1, 1) }},
		{"Poison data", func() error { return r.Poison(ioa.TtoR, space.DataPoison[0]) }},
		{"Poison ack", func() error { return r.Poison(ioa.RtoT, space.AckPoison[0]) }},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if r.Version() <= v {
			t.Errorf("%s left Version at %d (was %d)", step.name, r.Version(), v)
		}
		v = r.Version()
	}
}
