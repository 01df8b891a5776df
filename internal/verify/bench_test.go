package verify

import (
	"testing"

	"repro/internal/protocol"
)

// BenchmarkVerify times a budget-bounded cntexp exploration over the packed
// interned store — the profile-dominant workload (memoised steps + dedup
// insert).
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
