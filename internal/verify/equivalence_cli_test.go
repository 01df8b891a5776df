//go:build !race

package verify

import (
	"fmt"
	"testing"

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
// Together they take about 5 s on a 2-vCPU VM, most of it in the reference
// store, and many times that under the race detector, so race builds leave
// this file out, and TestProveAnswers below with it.
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

// TestProveAnswers pins the sixteen answers of the prove benchmark workload:
// `nfvet verify -all` at the default bounds, stabdl2 from every corrupted
// start with five messages, and seqnum at occupancy 4 with five messages.
// An answer is the verdict, the check, the state and edge counts and the
// space hash. TestRedriveNodes holds each visited node to the simulator but
// cannot see a successor the explorer never reached; these counts and
// hashes can.
func TestProveAnswers(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"altbit", Config{}, "VIOLATED CERTIFIED 37 73 d6122be01f8a4ffa"},
		{"cheat1", Config{}, "VIOLATED CERTIFIED 41 99 df3aa3575aeb0a72"},
		{"cntexp", Config{}, "BUDGET CONSISTENT 262145 1008608 a02458151e25323a"},
		{"cntk4", Config{}, "PROVED CERTIFIED 233 1131 b2b0bcd82b6a317d"},
		{"cntlinear", Config{}, "PROVED CERTIFIED 786 3510 e883578aa8b31f35"},
		{"seqnum", Config{}, "PROVED CERTIFIED 248 1007 028b20653be6e3f9"},
		{"stabdl2", Config{}, "PROVED CONSISTENT 765 3059 f82c0aa5f5911f0a"},
		{"stabnaive", Config{}, "PROVED CONSISTENT 230 935 72473e0eb6a5f17e"},
		{"gbn-s4-w2", Config{}, "PROVED OBSERVED 230 935 4d53d0be57485057"},
		{"gbn-s8-w4", Config{}, "PROVED OBSERVED 230 935 e9bc88a667810d17"},
		{"swindow-s4-w2", Config{}, "PROVED OBSERVED 298 1183 5157f2c00dcce532"},
		{"swindow-unbounded-w2", Config{}, "PROVED OBSERVED 248 1007 c98ccabcd1d63728"},
		{"livelock", Config{}, "VIOLATED CERTIFIED 4 7 6fadf52df95c7d3d"},
		{"cntnobind", Config{}, "VIOLATED CERTIFIED 188 531 996250559a5369c3"},
		{"stabdl2", Config{Stabilize: true, MaxMessages: 5}, "PROVED CERTIFIED 121101 546795 a2b48c9361470d34"},
		{"seqnum", Config{Occupancy: 4, MaxMessages: 5}, "PROVED CERTIFIED 38086 260844 1cc939e29ec939de"},
	} {
		p, err := replay.LookupProtocol(c.name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(p, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s %s %d %d %s", rep.Verdict, rep.Check, rep.States, rep.Edges, rep.SpaceHash)
		if got != c.want {
			t.Errorf("%s %+v: %s, want %s", c.name, c.cfg, got, c.want)
		}
	}
}
