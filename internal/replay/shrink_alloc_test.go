//go:build !race

package replay

import "testing"

// The race detector's instrumentation allocates on its own, so the
// ceiling holds in ordinary builds only.

// TestShrinkAllocCeiling caps the allocations of one shrink of the padded
// altbit duplication attack on a warmed Exec: the result, the capture log
// and its metadata, the recorded trace the batch checkers read, and what the
// protocol's endpoints allocate per replay. Candidates cost no copies.
func TestShrinkAllocCeiling(t *testing.T) {
	l := violatingAltbitLog(t)
	x := NewExec(replayLookup(t, "altbit"))
	for i := 0; i < 3; i++ {
		if _, err := x.Shrink(l); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 153
	if n := testing.AllocsPerRun(20, func() { _, _ = x.Shrink(l) }); n > ceiling {
		t.Errorf("%.0f allocations per Shrink on a warmed Exec, ceiling %d", n, ceiling)
	}
}
