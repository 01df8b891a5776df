package replay

import "testing"

// TestSightingsRepeatOnlyOnEqualBytes: the closing drive's cycle check
// declares a repeat only on byte equality. A key whose hash is indexed to
// a different key (a collision, forced here by pointing the index at it)
// is recorded as new, and found again afterwards by the exact scan; a
// reset forgets every key.
func TestSightingsRepeatOnlyOnEqualBytes(t *testing.T) {
	s := sightings{first: make(map[uint64]int)}
	for round, k := range []string{"t0|r0|{}|{}|0", "t1|r0|{d0×1}|{}|0"} {
		if _, ok := s.see([]byte(k), round); ok {
			t.Fatalf("first sighting of %q reported as a repeat", k)
		}
	}
	collider := []byte("t0|r1|{}|{a0×1}|1")
	s.first[keyHash(collider)] = 0
	if at, ok := s.see(collider, 2); ok {
		t.Fatalf("a hash collision with key 0 certified a repeat at %d", at)
	}
	for k, want := range map[string]int{"t1|r0|{d0×1}|{}|0": 1, string(collider): 2, "t0|r0|{}|{}|0": 0} {
		if at, ok := s.see([]byte(k), 9); !ok || at != want {
			t.Errorf("repeat of %q: at %d, %v; want at %d", k, at, ok, want)
		}
	}
	s.reset()
	if _, ok := s.see([]byte("t0|r0|{}|{}|0"), 0); ok {
		t.Error("a reset sightings log still remembers a key")
	}
}
