package intern

import (
	"fmt"
	"sync"
	"testing"
)

// interner is the shared surface of Local and Table, so the round-trip
// property is proved for both variants.
type interner interface {
	Intern(string) uint32
	InternBytes([]byte) uint32
	Resolve(uint32) string
	Len() int
}

// TestRoundTrip: Intern then Resolve is the identity, ids are dense in
// first-intern order, and re-interning returns the same id — for the
// locked Table and the single-goroutine Local alike.
func TestRoundTrip(t *testing.T) {
	for _, v := range []struct {
		name string
		tab  interner
	}{{"table", New()}, {"local", NewLocal()}} {
		t.Run(v.name, func(t *testing.T) { roundTrip(t, v.tab) })
	}
}

func roundTrip(t *testing.T, tab interner) {
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
	tab := New()
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
	tab := New()
	buf := []byte("original")
	id := tab.InternBytes(buf)
	copy(buf, "clobberd")
	if got := tab.Resolve(id); got != "original" {
		t.Fatalf("Resolve after clobbering the caller's buffer: %q, want %q", got, "original")
	}
}

// TestConcurrent hammers one table from many goroutines over an overlapping
// key space; run under -race this is the locking proof, and the final
// cross-check catches torn id assignments.
func TestConcurrent(t *testing.T) {
	tab := New()
	const workers, perWorker = 8, 400
	var wg sync.WaitGroup
	got := make([][]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint32, perWorker)
			for i := 0; i < perWorker; i++ {
				// Overlapping across workers: every key is interned by all.
				ids[i] = tab.Intern(fmt.Sprintf("shared-%d", i))
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[w] {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d interned shared-%d as %d, worker 0 as %d", w, i, got[w][i], got[0][i])
			}
		}
	}
	if tab.Len() != perWorker {
		t.Fatalf("Len = %d, want %d", tab.Len(), perWorker)
	}
}

// FuzzIntern feeds arbitrary byte strings through both intern entry points
// and checks round-trip and idempotence.
func FuzzIntern(f *testing.F) {
	f.Add([]byte("altbitT{bit=0 busy=false}"))
	f.Add([]byte(""))
	f.Add([]byte{0, 1, 2, 0xff})
	tab := New()
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
