package verify

import (
	"repro/internal/replay"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// DL3 as a graph property: after an exhaustive exploration, a configuration
// that strands a message (submitted > delivered) and cannot reach any
// progress edge is a no-progress region — the adversary can park the system
// there forever *within the explored discipline*. That alone is not the
// paper's livelock: under a fully adversarial channel every protocol
// strands messages, and the paper's DL3 blames the protocol only when it
// fails under the optimal closure ("the physical layer starts behaving in
// the optimal way"). So stranded candidates are confirmed, not trusted: the
// witness prefix is re-driven and handed to replay.CertifyLivelock, which
// drives the reliable closing extension and issues a pumping-lemma
// certificate only if the protocol itself loops through a repeated joint
// configuration without delivering. Candidates that recover under the
// reliable drive are artifacts of the occupancy cap, reported but not
// violations.

// strandedCandidates returns, in BFS order, the nodes that strand a message
// and cannot reach a progress edge in the explored graph. The reverse graph
// is built in compressed sparse rows: the predecessors of node v are
// pred[off[v]:off[v+1]], one flat array filled from the edge log in two
// passes (in-degree counts, then placement).
func (e *explorer) strandedCandidates() []int32 {
	n := e.keys.len()
	off := make([]int32, n+1)
	for i := 0; i < e.edges.len(); i++ {
		off[e.edges.at(int32(i)).to]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	// off[v] is now the end of v's row; placing each edge backwards from
	// the end leaves it at the row's start, with the rows in edge order.
	pred := make([]int32, e.edges.len())
	for i := e.edges.len() - 1; i >= 0; i-- {
		ed := e.edges.at(int32(i))
		off[ed.to]--
		pred[off[ed.to]] = ed.from
	}

	good := make(bitset, (n+63)/64)
	copy(good, e.progress)
	var stack []int32
	for id := int32(0); int(id) < n; id++ {
		if good.has(id) {
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range pred[off[v]:off[v+1]] {
			if !good.has(u) {
				good.add(u)
				stack = append(stack, u)
			}
		}
	}
	var out []int32
	for id := int32(0); int(id) < n; id++ {
		if good.has(id) {
			continue
		}
		k := e.keys.at(id)
		stranded := k.sub > k.del
		if e.cfg.Stabilize {
			// Corrupted runs also deliver garbage and duplicates, which
			// inflate the delivery count without progress; a message is
			// stranded when the clean frontier has not passed it.
			stranded = k.sub > k.gfro
		}
		if stranded {
			out = append(out, id)
		}
	}
	return out
}

// dl3Confirm caps how many stranded candidates are re-driven through the
// livelock certifier.
const dl3Confirm = 3

// confirmLivelock tries to certify a livelock from the stranded candidates,
// in BFS order (shallowest witness first), attempting at most dl3Confirm of
// them. It returns the certificate and the pumped, self-contained NFT form,
// or nil when every attempted candidate recovers under the reliable drive.
func (e *explorer) confirmLivelock(cands []int32) (*replay.LivelockCert, *trace.Log, int, error) {
	attempted := 0
	for _, id := range cands {
		if attempted >= dl3Confirm {
			break
		}
		attempted++
		moves, root := e.chain(id, nil)
		wl, _, err := e.witnessLog(moves, root)
		if err != nil {
			return nil, nil, attempted, err
		}
		cert, err := replay.CertifyLivelock(wl, replay.CertifyOptions{})
		if err != nil {
			// The candidate recovers (or stalls without a cycle) under the
			// reliable closing drive: not a livelock, try the next one.
			continue
		}
		// The returned artifact is the pumped certificate's replay, checked
		// as every certificate is.
		rr, err := stabilize.Confirm(cert.Pumped(replay.DefaultPump))
		if err != nil {
			continue
		}
		return cert, rr.Log, attempted, nil
	}
	return nil, nil, attempted, nil
}
