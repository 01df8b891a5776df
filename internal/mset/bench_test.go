package mset

import "testing"

// BenchmarkHotLoop replays the channel hot-loop shape: clone, a burst of
// inserts and removes, then a canonical-key render.
func BenchmarkHotLoop(b *testing.B) {
	src := New[int](func(a, c int) bool { return a < c })
	for v := 0; v < 8; v++ {
		src.Add(v%5, 1+v%3)
	}
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		m.Add(i%7, 1)
		m.Remove(i%5, 1)
		if len(m.Key()) == 0 {
			b.Fatal("empty key")
		}
	}
}
