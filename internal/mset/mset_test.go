package mset

import (
	"strings"
	"testing"
	"testing/quick"
)

func newInt() *Multiset[int] {
	return New[int](func(a, b int) bool { return a < b })
}

func newStr() *Multiset[string] {
	return New[string](func(a, b string) bool { return a < b })
}

func TestEmpty(t *testing.T) {
	m := newInt()
	if m.Len() != 0 || m.Distinct() != 0 {
		t.Fatalf("empty multiset: Len=%d Distinct=%d", m.Len(), m.Distinct())
	}
	if m.Count(7) != 0 {
		t.Fatalf("Count on empty = %d, want 0", m.Count(7))
	}
	if got := m.String(); got != "{}" {
		t.Fatalf("String() = %q, want {}", got)
	}
}

func TestAddCount(t *testing.T) {
	m := newInt()
	m.Add(3, 2)
	m.Add(1, 1)
	m.Add(3, 1)
	if m.Count(3) != 3 || m.Count(1) != 1 {
		t.Fatalf("counts wrong: %v", m)
	}
	if m.Len() != 4 || m.Distinct() != 2 {
		t.Fatalf("Len=%d Distinct=%d, want 4,2", m.Len(), m.Distinct())
	}
}

func TestAddZeroIsNoop(t *testing.T) {
	m := newInt()
	m.Add(5, 0)
	if m.Len() != 0 || m.Distinct() != 0 {
		t.Fatalf("Add(v,0) changed multiset: %v", m)
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(v, -1) did not panic")
		}
	}()
	newInt().Add(1, -1)
}

func TestRemove(t *testing.T) {
	m := newInt()
	m.Add(2, 5)
	if err := m.Remove(2, 3); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if m.Count(2) != 2 || m.Len() != 2 {
		t.Fatalf("after remove: %v", m)
	}
	if err := m.Remove(2, 2); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if m.Count(2) != 0 || m.Distinct() != 0 {
		t.Fatalf("after full remove: %v", m)
	}
}

func TestRemoveTooMany(t *testing.T) {
	m := newInt()
	m.Add(2, 1)
	if err := m.Remove(2, 2); err == nil {
		t.Fatal("Remove of more copies than present did not error")
	}
	if m.Count(2) != 1 {
		t.Fatalf("failed Remove mutated multiset: %v", m)
	}
	if err := m.Remove(9, 1); err == nil {
		t.Fatal("Remove of absent element did not error")
	}
	if err := m.Remove(2, -1); err == nil {
		t.Fatal("Remove with negative count did not error")
	}
	if err := m.Remove(2, 0); err != nil {
		t.Fatalf("Remove(v, 0) errored: %v", err)
	}
}

func TestValuesSorted(t *testing.T) {
	m := newStr()
	for _, s := range []string{"c", "a", "b", "a"} {
		m.Add(s, 1)
	}
	got := m.Values()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Values() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values() = %v, want %v", got, want)
		}
	}
}

func TestForEachOrderAndCounts(t *testing.T) {
	m := newInt()
	m.Add(9, 1)
	m.Add(4, 2)
	m.Add(7, 3)
	var vs []int
	var ns []int
	m.ForEach(func(v, n int) { vs = append(vs, v); ns = append(ns, n) })
	if len(vs) != 3 || vs[0] != 4 || vs[1] != 7 || vs[2] != 9 {
		t.Fatalf("ForEach order = %v", vs)
	}
	if ns[0] != 2 || ns[1] != 3 || ns[2] != 1 {
		t.Fatalf("ForEach counts = %v", ns)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := newInt()
	m.Add(1, 2)
	c := m.Clone()
	c.Add(1, 1)
	c.Add(2, 1)
	if m.Count(1) != 2 || m.Count(2) != 0 {
		t.Fatalf("mutating clone changed original: %v", m)
	}
	m.Add(1, 1)
	m.Add(4, 1)
	if c.Count(1) != 3 || c.Count(4) != 0 {
		t.Fatalf("mutating original changed clone: %v", c)
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("clone not Equal to original")
	}
}

func TestEqual(t *testing.T) {
	a, b := newInt(), newInt()
	a.Add(1, 2)
	b.Add(1, 2)
	if !a.Equal(b) {
		t.Fatal("equal multisets reported unequal")
	}
	b.Add(1, 1)
	if a.Equal(b) {
		t.Fatal("different counts reported equal")
	}
	c := newInt()
	c.Add(2, 2)
	if a.Equal(c) {
		t.Fatal("different elements reported equal")
	}
}

func TestContains(t *testing.T) {
	a, b := newInt(), newInt()
	a.Add(1, 3)
	a.Add(2, 1)
	b.Add(1, 2)
	if !a.Contains(b) {
		t.Fatal("a should contain b")
	}
	if b.Contains(a) {
		t.Fatal("b should not contain a")
	}
	b.Add(3, 1)
	if a.Contains(b) {
		t.Fatal("a should not contain b after adding 3")
	}
	if !a.Contains(newInt()) {
		t.Fatal("every multiset contains the empty multiset")
	}
}

func TestStringDeterministic(t *testing.T) {
	m := newStr()
	m.Add("b", 2)
	m.Add("a", 1)
	if got := m.String(); got != "{a×1, b×2}" {
		t.Fatalf("String() = %q", got)
	}
	if m.Key() != m.String() {
		t.Fatal("Key() should equal String()")
	}
}

// Property: after any sequence of adds, Len is the sum of counts and Values
// is sorted and duplicate-free.
func TestQuickAddInvariants(t *testing.T) {
	f := func(vals []int8) bool {
		m := newInt()
		total := 0
		for _, v := range vals {
			m.Add(int(v), 1)
			total++
		}
		if m.Len() != total {
			return false
		}
		sum := 0
		m.ForEach(func(_, n int) { sum += n })
		if sum != total {
			return false
		}
		ks := m.Values()
		for i := 1; i < len(ks); i++ {
			if ks[i-1] >= ks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: add-then-remove of the same copies restores the original
// multiset exactly.
func TestQuickAddRemoveRoundTrip(t *testing.T) {
	f := func(base, extra []uint8) bool {
		m := newInt()
		for _, v := range base {
			m.Add(int(v), 1)
		}
		snapshot := m.Clone()
		for _, v := range extra {
			m.Add(int(v), 1)
		}
		for _, v := range extra {
			if err := m.Remove(int(v), 1); err != nil {
				return false
			}
		}
		return m.Equal(snapshot)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Contains is reflexive and respects single-copy removal.
func TestQuickContains(t *testing.T) {
	f := func(vals []uint8) bool {
		m := newInt()
		for _, v := range vals {
			m.Add(int(v), 1)
		}
		if !m.Contains(m) {
			return false
		}
		sub := m.Clone()
		for _, v := range sub.Values() {
			if err := sub.Remove(v, 1); err != nil {
				return false
			}
			if !m.Contains(sub) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyDistinguishesContents(t *testing.T) {
	a, b := newStr(), newStr()
	a.Add("x", 2)
	b.Add("x", 1)
	b.Add("x", 1)
	if a.Key() != b.Key() {
		t.Fatal("same contents should have same key")
	}
	b.Add("y", 1)
	if a.Key() == b.Key() {
		t.Fatal("different contents should have different keys")
	}
	if !strings.Contains(b.Key(), "y×1") {
		t.Fatalf("key missing element: %q", b.Key())
	}
}

// TestAppendKey: the append rendering must equal String()/Key() byte for
// byte (the interned stores hash the appended form, the legacy stores the
// string form), with and without a custom element renderer, and must extend
// a non-empty prefix in place.
func TestAppendKey(t *testing.T) {
	m := newInt()
	for _, v := range []int{5, 3, 3, 9, 3} {
		m.Add(v, 1)
	}
	if got, want := string(m.AppendKey(nil, nil)), m.Key(); got != want {
		t.Fatalf("AppendKey = %q, Key = %q", got, want)
	}
	pre := []byte("ch|")
	if got, want := string(m.AppendKey(pre, nil)), "ch|"+m.Key(); got != want {
		t.Fatalf("AppendKey with prefix = %q, want %q", got, want)
	}
	empty := newStr()
	if got := string(empty.AppendKey(nil, nil)); got != "{}" {
		t.Fatalf("empty AppendKey = %q, want {}", got)
	}
	// Custom element renderer: must be consulted for every element.
	s := newStr()
	s.Add("b", 2)
	s.Add("a", 1)
	custom := func(dst []byte, v string) []byte { return append(append(dst, '<'), append([]byte(v), '>')...) }
	if got, want := string(s.AppendKey(nil, custom)), "{<a>×1, <b>×2}"; got != want {
		t.Fatalf("custom AppendKey = %q, want %q", got, want)
	}
}

// TestQuickAppendKeyMatchesString: property form over random contents.
func TestQuickAppendKeyMatchesString(t *testing.T) {
	f := func(vals []uint8) bool {
		m := newInt()
		for _, v := range vals {
			m.Add(int(v)%7, int(v)%3+1)
		}
		return string(m.AppendKey(nil, nil)) == m.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReset: empties in place and the multiset is fully reusable.
func TestReset(t *testing.T) {
	m := newInt()
	m.Add(3, 4)
	m.Reset()
	if m.Len() != 0 || m.Distinct() != 0 || m.String() != "{}" {
		t.Fatalf("after Reset: Len=%d Distinct=%d String=%q", m.Len(), m.Distinct(), m.String())
	}
	m.Add(2, 1)
	if m.Len() != 1 || m.Count(2) != 1 {
		t.Fatalf("reuse after Reset: Len=%d Count(2)=%d", m.Len(), m.Count(2))
	}
}
