package verify

import (
	"testing"

	"repro/internal/intern"
	"repro/internal/protocol"
)

// BenchmarkVerify times a budget-bounded cntexp exploration over the packed
// interned store — the profile-dominant workload (key render + clone +
// dedup insert).
func BenchmarkVerify(b *testing.B) {
	b.Run("interned", func(b *testing.B) {
		p := protocol.NewCntExp()
		states := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := Run(p, Config{MaxStates: 1 << 14})
			if err != nil {
				b.Fatal(err)
			}
			states = rep.States
		}
		b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "configs/sec")
	})
}

// BenchmarkConfigKey isolates the key cost on a configuration with a data
// packet in transit: refreshing the packed key after a move (a drop
// re-renders and interns one channel, a data delivery three components, a
// root all four) and rendering the canonical bytes a fresh insert hashes.
func BenchmarkConfigKey(b *testing.B) {
	p := protocol.NewCntExp()
	e := &explorer{cfg: Config{}.withDefaults(), proto: p, tab: intern.NewLocal(), pkts: newPktIntern()}
	c := newInit(p)
	c.t.SendMsg(payload(0))
	c.submitted = 1
	if pkt, ok := c.t.NextPkt(); ok {
		c.chData.Send(pkt)
	}
	for _, m := range []struct {
		name string
		kind moveKind
	}{{"drop", mvDropData}, {"deliver-data", mvDeliverData}, {"root", 0}} {
		b.Run("key-"+m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.keyOf(c, m.kind)
			}
		})
	}
	b.Run("render", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(e.render(c)) == 0 {
				b.Fatal("empty key")
			}
		}
	})
}
