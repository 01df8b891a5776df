package intern

import (
	"fmt"
	"testing"
)

// TestRoundTrip: Intern then Resolve is the identity, ids are dense in
// first-intern order, and re-interning returns the same id. The subtest is
// named after the interner it runs on.
func TestRoundTrip(t *testing.T) {
	t.Run("local", func(t *testing.T) { roundTrip(t, NewLocal()) })
}

func roundTrip(t *testing.T, tab *Local) {
	var keys []string
	for i := 0; i < 500; i++ {
		keys = append(keys, fmt.Sprintf("key-%d|{x×%d}|%d", i%97, i%7, i))
	}
	ids := make([]uint32, len(keys))
	for i, k := range keys {
		ids[i] = tab.Intern(k)
		if got := tab.Intern(k); got != ids[i] {
			t.Fatalf("re-intern %q: %d then %d", k, ids[i], got)
		}
		if got := tab.InternBytes([]byte(k)); got != ids[i] {
			t.Fatalf("InternBytes %q: %d, Intern gave %d", k, got, ids[i])
		}
	}
	for i, k := range keys {
		if got := tab.Resolve(ids[i]); got != k {
			t.Fatalf("Resolve(%d) = %q, want %q", ids[i], got, k)
		}
	}
	if tab.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tab.Len())
	}
}

// TestInjective: distinct strings get distinct ids — the property every
// packed-key dedup in verify/analyze leans on.
func TestInjective(t *testing.T) {
	tab := NewLocal()
	seen := make(map[uint32]string)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("%d", i)
		id := tab.Intern(k)
		if prev, ok := seen[id]; ok {
			t.Fatalf("id %d assigned to both %q and %q", id, prev, k)
		}
		seen[id] = k
	}
}

// TestInternBytesDoesNotRetain: the table must copy the bytes it keeps —
// callers hand it aliases of reused scratch buffers.
func TestInternBytesDoesNotRetain(t *testing.T) {
	tab := NewLocal()
	buf := []byte("original")
	id := tab.InternBytes(buf)
	copy(buf, "clobberd")
	if got := tab.Resolve(id); got != "original" {
		t.Fatalf("Resolve after clobbering the caller's buffer: %q, want %q", got, "original")
	}
}

// FuzzIntern feeds arbitrary byte strings through both intern entry points
// and checks round-trip and idempotence.
func FuzzIntern(f *testing.F) {
	f.Add([]byte("altbitT{bit=0 busy=false}"))
	f.Add([]byte(""))
	f.Add([]byte{0, 1, 2, 0xff})
	tab := NewLocal()
	f.Fuzz(func(t *testing.T, b []byte) {
		id := tab.InternBytes(b)
		if id2 := tab.Intern(string(b)); id2 != id {
			t.Fatalf("Intern vs InternBytes: %d vs %d", id2, id)
		}
		if got := tab.Resolve(id); got != string(b) {
			t.Fatalf("Resolve(%d) = %q, want %q", id, got, b)
		}
	})
}
