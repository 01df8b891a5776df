// Fixture: statekey findings. The analyzer guards AppendStateKey and
// AppendControlKey method bodies in every package, including impurity
// reached transitively through package-local helpers.
package keys

import (
	"fmt"
	"math/rand"
	"strconv"
)

type sprintfKey struct{ n int }

func (s sprintfKey) AppendStateKey(dst []byte) []byte {
	return append(dst, fmt.Sprintf("s{n=%d}", s.n)...) // want "AppendStateKey calls fmt.Sprintf"
}

type mapKey struct{ counts map[string]int }

func (m mapKey) AppendStateKey(dst []byte) []byte {
	for k, v := range m.counts { // want "AppendStateKey ranges over a map"
		dst = strconv.AppendInt(append(dst, k...), int64(v), 10)
	}
	return dst
}

func keyf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

type helperKey struct{ n int }

func (h helperKey) AppendStateKey(dst []byte) []byte {
	return append(dst, keyf("h{n=%d}", h.n)...) // want "AppendStateKey calls keyf, which calls fmt.Sprintf"
}

func render(n int) string { return keyf("r{n=%d}", n) }

type deepKey struct{ n int }

func (d deepKey) AppendControlKey(dst []byte) []byte {
	return append(dst, render(d.n)...) // want "AppendControlKey calls render, which calls keyf, which calls fmt.Sprintf"
}

type randKey struct{}

func (randKey) AppendStateKey(dst []byte) []byte {
	return strconv.AppendInt(dst, rand.Int63(), 16) // want "state keys must not consume randomness" "rand.Int63 uses the process-global source"
}

type cleanKey struct {
	n    int
	tags []string
}

func (c cleanKey) AppendStateKey(dst []byte) []byte {
	// Direct byte appends and slice iteration: not flagged.
	dst = strconv.AppendInt(append(dst, "c{n="...), int64(c.n), 10)
	for _, tag := range c.tags {
		dst = append(append(dst, ' '), tag...)
	}
	return append(dst, '}')
}

// describe is not a state-key method; fmt formatting here is fine.
func describe(c cleanKey) string {
	return fmt.Sprintf("cleanKey(%d)", c.n)
}
