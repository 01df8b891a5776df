package verify

import (
	"fmt"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// runnerKey renders the runner's configuration the way explorer.render
// renders a packed key. In stabilize mode the amnesty bookkeeping comes
// from classifying the logged deliveries, each against the messages
// submitted before it, starting from the root seed's amnesty.
func runnerKey(e *explorer, run *sim.Runner, wl *trace.Log, root int32) string {
	b := protocol.AppendControlKey(nil, run.T)
	b = append(b, '|')
	b = protocol.AppendControlKey(b, run.R)
	b = append(b, '|')
	b = run.ChData.AppendKey(b)
	b = append(b, '|')
	b = run.ChAck.AppendKey(b)
	b = fmt.Appendf(b, "|%d|%d", run.SentMessages(), len(run.Delivered()))
	if e.cfg.Stabilize {
		rem, fro, lost, sub := stabilize.Amnesty(e.roots[root], e.cfg.Occupancy), 0, uint64(0), 0
		for _, ev := range wl.Events {
			switch ev.Kind {
			case trace.KindSubmit:
				sub++
			case trace.KindRecvMsg:
				var charge int
				_, charge, fro, lost = stabilize.Classify(ev.Msg.Payload, payload, fro, lost, sub)
				rem -= charge
			}
		}
		b = fmt.Appendf(b, "|g%d|f%d|l%x", rem, fro, lost)
	}
	return string(b)
}

// TestRedriveNodes holds every visited configuration to the simulator: the
// node's parent path is re-driven through a fresh runner by the witness
// re-drive, and the runner's configuration must render to the node's key.
// The explorer steps interned components through memoised steps; the runner
// steps live endpoints over live channels, so a step memoised on too small a
// key, a lost ack or a wrong amnesty charge shows at the first node it
// reaches. Every specimen runs with POR off, where drops fire everywhere,
// and on; stabdl2 and stabnaive also run from their corrupted starts.
func TestRedriveNodes(t *testing.T) {
	cases := specimenCases(Config{NoPOR: true, MaxStates: 3000})
	for _, c := range specimenCases(Config{MaxStates: 3000}) {
		c.name = "por-" + c.name
		cases = append(cases, c)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, _, err := explore(c.p, c.cfg, newIntStore)
			if err != nil {
				t.Fatal(err)
			}
			if e.keys.len() < 2 {
				t.Fatalf("visited only %d configuration(s)", e.keys.len())
			}
			for id := int32(0); int(id) < e.keys.len(); id++ {
				moves, root := e.chain(id, nil)
				wl, run, err := e.witnessLog(moves, root)
				if err != nil {
					t.Fatalf("node %d: %v", id, err)
				}
				if got, want := runnerKey(e, run, wl, root), string(e.render(e.keys.at(id))); got != want {
					t.Fatalf("node %d, path %v:\nrunner %s\nkey    %s", id, moves, got, want)
				}
			}
		})
	}
}
