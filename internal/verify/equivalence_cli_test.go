//go:build !race

package verify

import (
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/transport"
)

// The equivalence runs at command-line scale. Each one is a run of
// `nfvet verify` at the same bounds:
//
//   - -all and -all -stabilize, which include cntexp at its full
//     262,144-state budget;
//   - -stabilize -maxmsg 5 stabdl2 and -maxocc 4 -maxmsg 5 seqnum, the
//     prove workload's two large exhausted spaces, over whose whole graph
//     the DL3 analysis runs;
//   - -stabilize -maxpoison 2 for stabdl2, stabnaive and altbit.
//
// Together they take about 10 s, and about 90 s under the race detector, so
// race builds leave this file out.
func init() {
	names := append(protocol.Names(), transport.Names()...)
	for _, name := range append(names, "livelock", "cntnobind") {
		p, err := replay.LookupProtocol(name)
		if err != nil {
			panic(err)
		}
		equivalenceCases = append(equivalenceCases,
			proverCase{"all-" + name, p, Config{}},
			proverCase{"all-stabilize-" + name, p, Config{Stabilize: true}})
	}
	equivalenceCases = append(equivalenceCases,
		proverCase{"stabdl2-stabilize-maxmsg5", protocol.NewStabDL(2), Config{Stabilize: true, MaxMessages: 5}},
		proverCase{"seqnum-maxocc4-maxmsg5", protocol.NewSeqNum(), Config{Occupancy: 4, MaxMessages: 5}})
	for _, p := range []protocol.Protocol{protocol.NewStabDL(2), protocol.NewStabNaive(), protocol.NewAltBit()} {
		equivalenceCases = append(equivalenceCases,
			proverCase{p.Name() + "-stabilize-maxpoison2", p, Config{Stabilize: true, MaxPoison: 2}})
	}
}
