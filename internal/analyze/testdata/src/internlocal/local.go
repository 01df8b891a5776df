// Fixture for the internlocal analyzer: intern.Local is unsynchronized and
// must never become visible to a second goroutine.
package fuzz

import "repro/internal/intern"

var shared *intern.Local // want "package-level variable shared carries intern.Local"

// engine carries a Local transitively through a struct field.
type engine struct {
	tab   *intern.Local
	depth int
}

func (e *engine) run() {}

func worker(l *intern.Local) uint32 { return l.Intern("x") }

func spawnAll() {
	loc := intern.NewLocal()

	go func() {
		_ = loc.Intern("a") // want "goroutine closure captures loc, which carries intern.Local"
	}()

	go func() {
		own := intern.NewLocal() // fine: the goroutine's own Local
		_ = own.Intern("a")
	}()

	go worker(loc) // want "goroutine argument loc carries intern.Local"

	e := &engine{tab: loc}
	go e.run() // want "goroutine method call on e, which carries intern.Local"

	ch := make(chan *intern.Local, 1)
	ch <- loc // want "channel send publishes a value carrying intern.Local"

	results := make(chan uint32, 1)
	results <- worker(loc) // fine: the id crosses, not the interner
}
