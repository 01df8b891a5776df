// Package intern maps canonical key strings — endpoint state and control key
// encodings, channel multiset keys, packet renderings — to dense uint32 ids.
//
// The repo's exploration engines (fuzz coverage, the bounded verifier, the
// static auditor) all dedup on canonical strings; PR 2 measured key
// construction and hashing at 43% of campaign CPU. Interning moves that cost
// to the *first* sight of each distinct key: the hot loops compare and map
// on integers, and the strings are only materialised for reports, witnesses
// and space hashes.
//
// Ids are assigned in first-intern order starting at 0 and are stable for
// the lifetime of the interner. Local is unsynchronised: its owners (the
// bounded verifier's explorer, the audit bisimulation) intern from one
// goroutine, and even an uncontended RWMutex would cost two atomic ops per
// lookup. A goroutine that interns gets its own Local; the internlocal lint
// keeps one from crossing goroutines. InternBytes lets callers intern from
// a reusable scratch buffer without allocating a string unless the key is
// genuinely new, which is what makes the steady-state hot loop
// allocation-free.
package intern

// Local is a single-goroutine string interner. The zero value is not
// usable; construct with NewLocal.
type Local struct {
	ids  map[string]uint32
	strs []string
}

// NewLocal returns an empty unsynchronised interner.
func NewLocal() *Local {
	return &Local{ids: make(map[string]uint32)}
}

// Intern returns the dense id of s, assigning the next id on first sight.
func (l *Local) Intern(s string) uint32 {
	if id, ok := l.ids[s]; ok {
		return id
	}
	return l.assign(s)
}

// InternBytes is Intern for a scratch buffer: it allocates a string only
// when the key has not been seen before, so steady-state calls are
// allocation-free.
func (l *Local) InternBytes(b []byte) uint32 {
	if id, ok := l.ids[string(b)]; ok { // no alloc: map lookup special case
		return id
	}
	return l.assign(string(b))
}

func (l *Local) assign(s string) uint32 {
	id := uint32(len(l.strs))
	l.ids[s] = id
	l.strs = append(l.strs, s)
	return id
}

// Resolve returns the string with the given id. It panics on an id the
// interner never issued, which is always a programming error (ids only come
// from Intern/InternBytes on the same interner).
func (l *Local) Resolve(id uint32) string { return l.strs[id] }

// Len reports the number of interned strings.
func (l *Local) Len() int { return len(l.strs) }
