package verify

import (
	"testing"

	"repro/internal/intern"
	"repro/internal/protocol"
)

// keyCheckStore holds every inserted configuration's incremental key to the
// key recomputed with every component re-rendered.
type keyCheckStore struct {
	store
	e *explorer
	t *testing.T
}

func (s keyCheckStore) insert(c *config) (int32, bool) {
	if full := fullKey(s.e, c); c.key != full {
		s.t.Fatalf("incremental key %+v, full re-render %+v, of %s", c.key, full, s.e.render(c))
	}
	return s.store.insert(c)
}

// fullKey is the reference for keyOf: every component rendered afresh and
// interned, the counters read from the configuration.
func fullKey(e *explorer, c *config) intKey {
	k := intKey{
		tc:  e.tab.Intern(string(protocol.AppendControlKey(nil, c.t))),
		rc:  e.tab.Intern(string(protocol.AppendControlKey(nil, c.r))),
		dk:  e.tab.Intern(c.chData.Key()),
		ak:  e.tab.Intern(c.chAck.Key()),
		sub: c.submitted,
		del: c.delivered,
	}
	if e.cfg.Stabilize {
		k.grem, k.gfro, k.lost = c.remaining, c.frontier, c.lost
	}
	return k
}

// parentState renders everything of c a move could change, with the full
// state keys besides the control keys the canonical key carries.
func parentState(e *explorer, c *config) string {
	return string(e.render(c)) + " t=" + protocol.StateKey(c.t) + " r=" + protocol.StateKey(c.r)
}

// TestExpandSharing holds endpoint sharing and incremental keys to their
// references on every specimen: expand must leave each configuration it
// expands as it was (its successors share its unstepped endpoint), and
// every successor's incremental key must equal its key with every component
// re-rendered. POR is off, so drops fire everywhere; stabdl2 and stabnaive
// also run from their corrupted starts, whose keys carry the amnesty
// bookkeeping.
func TestExpandSharing(t *testing.T) {
	for _, r := range specimenCases(Config{NoPOR: true, MaxStates: 2000}) {
		t.Run(r.name, func(t *testing.T) {
			cfg := r.cfg.withDefaults()
			e := &explorer{cfg: cfg, proto: r.p, tab: intern.NewLocal(), pkts: newPktIntern()}
			e.seen = keyCheckStore{store: newIntStore(&e.keys, e.render), e: e, t: t}
			if _, err := e.visitRoots(); err != nil {
				t.Fatal(err)
			}
			head := int32(0)
			for ; int(head) < e.queue.len() && e.violation == nil && e.keys.len() < cfg.MaxStates; head++ {
				s := e.queue.at(head)
				before := parentState(e, s)
				e.expand(s)
				if after := parentState(e, s); after != before {
					t.Fatalf("expanding node %d changed it:\nbefore %s\nafter  %s", head, before, after)
				}
				e.release(s)
			}
			if head < 2 {
				t.Fatalf("expanded only %d configuration(s)", head)
			}
		})
	}
}
