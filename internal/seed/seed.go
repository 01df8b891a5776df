// Package seed derives the seeds of named random streams from a root seed.
// It is a leaf: the fuzzer, the soak server, the experiment suite and the
// facade all draw their streams through it.
package seed

import (
	"encoding/binary"
	"hash/fnv"
)

// Split derives the RNG seed for one named stream of an experiment from
// the experiment's root seed. Experiments that run several independent
// randomized series (per protocol, per message count, per replication) need
// uncorrelated channel behaviour in each; deriving every stream through a
// hash of (root, stream name) replaces the ad-hoc `k*seed+c` formulas that
// used to be scattered over the drivers, whose streams could collide (e.g.
// the same affine seed reached from different (seed, n) pairs) and whose
// low-entropy seeds feed poorly into the simulator's LCG-based source.
//
// The derivation is FNV-64a over the root seed's bytes followed by the
// stream name, so it is stable across runs, platforms and Go versions —
// recorded experiment outputs remain reproducible.
func Split(root int64, stream string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(root))
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(stream))
	return int64(h.Sum64())
}
