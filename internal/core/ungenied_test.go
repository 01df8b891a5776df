package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestUngeniedResetIsNew: the genie ablation's endpoints reset the
// endpoints they wrap, which keep the oracle-free genies the ablation gave
// them, so a runner reset after an ablated run records the log, and shows
// the keys, of a new runner's run of the same schedule. The schedules hold
// copies back, so a reset that handed the counting endpoints a live genie
// would set them different thresholds.
func TestUngeniedResetIsNew(t *testing.T) {
	p := ungenied{inner: protocol.NewCntLinear()}
	r := sim.NewRunner(sim.Config{Protocol: p})
	for seed := int64(1); seed <= 20; seed++ {
		run := func(start func(sim.Config) *sim.Runner) ([]byte, []byte) {
			rng := rand.New(rand.NewSource(seed))
			decisions := make([]trace.Decision, 64)
			for i := range decisions {
				decisions[i] = trace.Decision(1 + rng.Intn(3))
			}
			l := trace.NewLog(nil)
			rr := start(sim.Config{
				Protocol:   p,
				DataPolicy: channel.FromDecisions(decisions[:32], channel.Delay),
				AckPolicy:  channel.FromDecisions(decisions[32:], channel.Delay),
				TraceLog:   l,
			})
			var keys []byte
			for i := 0; i < 80; i++ {
				switch rng.Intn(5) {
				case 0:
					rr.SubmitMsg(protocol.Payload(rr.SentMessages()))
				case 1, 2:
					rr.StepTransmit()
				case 3:
					rr.DrainAcks()
				case 4:
					if n := rr.ChData.DistinctPackets(); n > 0 {
						_ = rr.DeliverStale(ioa.TtoR, rr.ChData.PacketAt(rng.Intn(n)))
					}
				}
				keys = append(rr.R.AppendStateKey(rr.T.AppendStateKey(keys)), '\n')
			}
			var b bytes.Buffer
			if err := l.Encode(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes(), keys
		}
		gotLog, gotKeys := run(func(cfg sim.Config) *sim.Runner { r.Reset(cfg); return r })
		wantLog, wantKeys := run(sim.NewRunner)
		if !bytes.Equal(gotLog, wantLog) || !bytes.Equal(gotKeys, wantKeys) {
			t.Fatalf("seed %d: a reset runner's ablated run differs from a new runner's:\n%s\nwant\n%s", seed, gotKeys, wantKeys)
		}
	}
}
