//go:build !race

package replay

import "testing"

// The race detector's instrumentation allocates on its own, so the
// ceiling holds in ordinary builds only.

// TestShrinkAllocCeiling caps the allocations of one shrink of the padded
// altbit duplication attack on a warmed Exec: the result, the capture log
// and its metadata, the recorded trace the batch checkers read, and the
// errors of the stale deliveries a candidate's removals leave infeasible.
// Endpoints reset in place, candidates cost no copies, and a candidate's
// verdict is read off the live checker's property query, so it formats no
// Detail.
func TestShrinkAllocCeiling(t *testing.T) {
	l := violatingAltbitLog(t)
	x := NewExec(replayLookup(t, "altbit"))
	for i := 0; i < 3; i++ {
		if _, err := x.Shrink(l); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 23
	if n := testing.AllocsPerRun(20, func() { _, _ = x.Shrink(l) }); n > ceiling {
		t.Errorf("%.0f allocations per Shrink on a warmed Exec, ceiling %d", n, ceiling)
	}
}
