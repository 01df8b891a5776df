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

// BenchmarkConfigKey isolates the canonical-key cost: the append rendering
// into a reused scratch buffer, with the packed component ids interned out
// of the same bytes.
func BenchmarkConfigKey(b *testing.B) {
	p := protocol.NewCntExp()
	e := &explorer{cfg: Config{}.withDefaults(), proto: p, tab: intern.NewLocal(), pkts: newPktIntern()}
	c := newInit(p)
	b.Run("append-interned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, canon := e.keyOf(c)
			if len(canon) == 0 {
				b.Fatal("empty key")
			}
		}
	})
}
