// Package mset provides a deterministic counted multiset.
//
// The multiset is the fundamental substrate of the non-FIFO physical
// channel: a packet sent on the channel is an element added to the
// in-transit multiset, and a delivery removes one copy. Because packets are
// distinguished only by their value (the paper's "header" convention),
// copies of equal packets are interchangeable, which is exactly the
// counted-multiset semantics.
//
// All iteration orders are deterministic: elements are visited in the order
// fixed by the comparison function supplied at construction. Determinism
// matters because the adversary constructions in internal/adversary perform
// exhaustive searches over channel behaviours and must be reproducible.
//
// Representation: a sorted association slice of (value, count) entries. The
// exploration engines clone channel multisets on every branch they take,
// and a slice clone is one memcpy with no per-element map rehash.
// The comparison function must be a strict total order on the values
// actually stored (ties between distinct values would make the canonical
// Key ambiguous, which the engines rely on for state identity).
package mset

import (
	"fmt"
	"strconv"
)

type entry[T comparable] struct {
	v T
	n int
}

// Multiset is a counted multiset over a comparable element type T.
// The zero value is not usable; construct with New.
type Multiset[T comparable] struct {
	ents []entry[T]
	less func(a, b T) bool
	size int
}

// New returns an empty multiset whose deterministic iteration order is
// defined by less, a strict total order on T.
func New[T comparable](less func(a, b T) bool) *Multiset[T] {
	return &Multiset[T]{less: less}
}

// Add inserts n copies of v. n must be non-negative; Add panics on negative
// n because that is always a programming error in this codebase (removals
// go through Remove, which reports impossible removals as errors).
func (m *Multiset[T]) Add(v T, n int) {
	if n < 0 {
		panic(fmt.Sprintf("mset: Add with negative count %d", n))
	}
	if n == 0 {
		return
	}
	i := m.search(v)
	if i < len(m.ents) && m.ents[i].v == v {
		m.ents[i].n += n
	} else {
		m.ents = append(m.ents, entry[T]{})
		copy(m.ents[i+1:], m.ents[i:])
		m.ents[i] = entry[T]{v: v, n: n}
	}
	m.size += n
}

// Remove deletes n copies of v. It returns an error if fewer than n copies
// are present; the multiset is unchanged in that case.
func (m *Multiset[T]) Remove(v T, n int) error {
	if n < 0 {
		return fmt.Errorf("mset: Remove with negative count %d", n)
	}
	i := m.search(v)
	have := 0
	if i < len(m.ents) && m.ents[i].v == v {
		have = m.ents[i].n
	}
	if have < n {
		return fmt.Errorf("mset: Remove %d copies of %v, only %d present", n, v, have)
	}
	if n == 0 {
		return nil
	}
	if have == n {
		m.ents = append(m.ents[:i], m.ents[i+1:]...)
	} else {
		m.ents[i].n = have - n
	}
	m.size -= n
	return nil
}

// Count reports how many copies of v are present.
func (m *Multiset[T]) Count(v T) int {
	i := m.search(v)
	if i < len(m.ents) && m.ents[i].v == v {
		return m.ents[i].n
	}
	return 0
}

// Len reports the total number of copies across all elements.
func (m *Multiset[T]) Len() int { return m.size }

// Distinct reports the number of distinct elements present.
func (m *Multiset[T]) Distinct() int { return len(m.ents) }

// Values returns the distinct elements in deterministic (sorted) order.
// The returned slice is a copy.
func (m *Multiset[T]) Values() []T {
	out := make([]T, len(m.ents))
	for i, e := range m.ents {
		out[i] = e.v
	}
	return out
}

// At returns the i-th distinct element in deterministic (sorted) order —
// the allocation-free point lookup behind Values.
func (m *Multiset[T]) At(i int) T { return m.ents[i].v }

// ForEach visits each distinct element with its count, in deterministic
// order. The callback must not mutate the multiset.
func (m *Multiset[T]) ForEach(fn func(v T, n int)) {
	for _, e := range m.ents {
		fn(e.v, e.n)
	}
}

// Clone returns a deep copy sharing no state with m.
func (m *Multiset[T]) Clone() *Multiset[T] {
	return &Multiset[T]{ents: append([]entry[T](nil), m.ents...), less: m.less, size: m.size}
}

// Reset empties the multiset, keeping the backing array for reuse.
func (m *Multiset[T]) Reset() {
	m.ents = m.ents[:0]
	m.size = 0
}

// String renders the multiset as "{v1×n1, v2×n2, ...}" in deterministic
// order, primarily for certificates and test failure messages.
func (m *Multiset[T]) String() string {
	return string(m.AppendKey(nil, nil))
}

// Key returns a canonical string encoding of the multiset contents, usable
// as a memoization key in adversary searches.
func (m *Multiset[T]) Key() string { return m.String() }

// AppendKey appends the canonical encoding (identical to String) to dst and
// returns the extended slice. elem renders one element; pass nil for the
// default fmt %v rendering. Callers on the exploration hot path supply an
// allocation-free elem so the whole key lands in a reused scratch buffer.
func (m *Multiset[T]) AppendKey(dst []byte, elem func(dst []byte, v T) []byte) []byte {
	dst = append(dst, '{')
	for i, e := range m.ents {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		if elem != nil {
			dst = elem(dst, e.v)
		} else {
			dst = fmt.Appendf(dst, "%v", e.v)
		}
		dst = append(dst, "×"...)
		dst = strconv.AppendInt(dst, int64(e.n), 10)
	}
	return append(dst, '}')
}

// search returns the insertion index of v: the first index whose entry is
// not less than v.
func (m *Multiset[T]) search(v T) int {
	// Binary search inlined over sort.Search to keep the hot path free of
	// closure allocation.
	lo, hi := 0, len(m.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.less(m.ents[mid].v, v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
