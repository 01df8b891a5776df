// Package ioauto is a small, faithful implementation of the I/O automaton
// model of Lynch & Tuttle [LT87] — the formalism the paper's model
// (via [LMF88]) is defined in.
//
// An automaton has an explicit action signature classifying each action as
// input, output or internal. Inputs are enabled in every state
// (input-enabledness); outputs and internal actions are locally controlled.
// Automata compose by synchronising on shared action names: an action owned
// (output/internal) by one component is an input to every other component
// whose signature contains it.
//
// The package provides composition with the [LT87] compatibility checks, a
// breadth-first reachability explorer over closed compositions, and — in
// model.go — the paper's system expressed in this formalism: channel
// automata (non-FIFO and FIFO), a user automaton, the alternating bit
// endpoint automata, and a data-link specification monitor whose error
// state is reachable exactly when DL1 is violated.
//
// Relationship to the rest of the repo: internal/explore walks the *same*
// kind of state space through the concrete protocol endpoints, and
// internal/spec checks traces after the fact. This package is the third,
// independent formulation — the textbook one — and the tests cross-validate
// its verdicts against the other two.
package ioauto

import (
	"errors"
	"fmt"
	"sort"
)

// Class classifies an action within an automaton's signature.
type Class int

const (
	// Input actions are controlled by the environment and enabled in
	// every state.
	Input Class = iota + 1
	// Output actions are locally controlled and externally visible.
	Output
	// Internal actions are locally controlled and invisible outside.
	Internal
)

func (c Class) String() string {
	switch c {
	case Input:
		return "input"
	case Output:
		return "output"
	case Internal:
		return "internal"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// State is one state of an automaton. States are immutable: Apply returns
// the successor.
type State interface {
	// Key canonically encodes the state.
	Key() string
	// Enabled lists the locally controlled actions enabled here, in
	// deterministic order.
	Enabled() []string
	// Apply performs a signature action and returns the successor state.
	// It must be total on inputs (input-enabledness) and must succeed for
	// every action listed by Enabled.
	Apply(action string) (State, error)
}

// Automaton couples a signature with an initial state.
type Automaton interface {
	// Name identifies the automaton in errors.
	Name() string
	// Signature maps every action of the automaton to its class.
	Signature() map[string]Class
	// Init returns the start state.
	Init() State
}

// Compose builds the [LT87] composition of the given automata. It returns
// an error if the parts are incompatible: an action owned (output or
// internal) by more than one part, or an internal action of one part
// appearing in another's signature.
func Compose(name string, parts ...Automaton) (Automaton, error) {
	if len(parts) == 0 {
		return nil, errors.New("ioauto: empty composition")
	}
	owner := make(map[string]int)
	for i, p := range parts {
		for a, cl := range p.Signature() {
			if cl == Input {
				continue
			}
			if j, taken := owner[a]; taken {
				return nil, fmt.Errorf("ioauto: action %q owned by both %s and %s",
					a, parts[j].Name(), p.Name())
			}
			owner[a] = i
		}
	}
	for i, p := range parts {
		for a, cl := range p.Signature() {
			if cl != Internal {
				continue
			}
			for j, q := range parts {
				if i == j {
					continue
				}
				if _, shares := q.Signature()[a]; shares {
					return nil, fmt.Errorf("ioauto: internal action %q of %s appears in %s",
						a, p.Name(), q.Name())
				}
			}
		}
	}
	sig := make(map[string]Class)
	for _, p := range parts {
		for a, cl := range p.Signature() {
			cur, seen := sig[a]
			switch {
			case !seen:
				sig[a] = cl
			case cl == Output || cur == Output:
				sig[a] = Output
			case cl == Internal || cur == Internal:
				sig[a] = Internal
			}
		}
	}
	return &composite{name: name, parts: parts, sig: sig}, nil
}

type composite struct {
	name  string
	parts []Automaton
	sig   map[string]Class
}

func (c *composite) Name() string                { return c.name }
func (c *composite) Signature() map[string]Class { return c.sig }

func (c *composite) Init() State {
	states := make([]State, len(c.parts))
	for i, p := range c.parts {
		states[i] = p.Init()
	}
	return &compState{comp: c, states: states}
}

type compState struct {
	comp   *composite
	states []State
}

func (s *compState) Key() string {
	key := ""
	for i, st := range s.states {
		if i > 0 {
			key += "\x1f"
		}
		key += st.Key()
	}
	return key
}

// Enabled lists the locally controlled actions of the composition: an
// action is enabled iff its owning part enables it (other parts receive it
// as an input, which never blocks).
func (s *compState) Enabled() []string {
	var out []string
	seen := make(map[string]bool)
	for _, st := range s.states {
		for _, a := range st.Enabled() {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Apply performs the action in every part whose signature contains it.
func (s *compState) Apply(action string) (State, error) {
	if _, ok := s.comp.sig[action]; !ok {
		return nil, fmt.Errorf("ioauto: action %q outside the composition's signature", action)
	}
	next := make([]State, len(s.states))
	copy(next, s.states)
	for i, p := range s.comp.parts {
		if _, ok := p.Signature()[action]; !ok {
			continue
		}
		ns, err := s.states[i].Apply(action)
		if err != nil {
			return nil, fmt.Errorf("ioauto: %s applying %q: %w", p.Name(), action, err)
		}
		next[i] = ns
	}
	return &compState{comp: s.comp, states: next}, nil
}

// Result is the outcome of a reachability exploration.
type Result struct {
	// Found is non-nil when the predicate matched: the action path from
	// the initial state.
	Found []string
	// FoundState is the matching state's key.
	FoundState string
	// States is the number of distinct states visited.
	States int
	// Exhausted reports complete coverage of the reachable space within
	// the state budget.
	Exhausted bool
}

// Reach explores the reachable states of a closed automaton (one whose
// environment is already composed in) breadth-first, following every
// enabled locally-controlled action, until pred matches, the space is
// exhausted, or maxStates is hit. The returned path is a shortest witness.
func Reach(a Automaton, pred func(State) bool, maxStates int) (Result, error) {
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	type node struct {
		state  State
		parent int
		action string
	}
	init := a.Init()
	if pred(init) {
		return Result{Found: []string{}, FoundState: init.Key(), States: 1, Exhausted: true}, nil
	}
	arena := []node{{state: init, parent: -1}}
	seen := map[string]bool{init.Key(): true}
	for i := 0; i < len(arena); i++ {
		if len(arena) >= maxStates {
			return Result{States: len(arena)}, nil
		}
		cur := arena[i]
		for _, act := range cur.state.Enabled() {
			ns, err := cur.state.Apply(act)
			if err != nil {
				return Result{}, fmt.Errorf("ioauto: enabled action %q failed: %w", act, err)
			}
			if pred(ns) {
				// Reconstruct the action path.
				path := []string{act}
				for j := i; j >= 0 && arena[j].parent >= 0; j = arena[j].parent {
					path = append(path, arena[j].action)
				}
				for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
					path[l], path[r] = path[r], path[l]
				}
				return Result{
					Found:      path,
					FoundState: ns.Key(),
					States:     len(arena),
					Exhausted:  false,
				}, nil
			}
			k := ns.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			arena = append(arena, node{state: ns, parent: i, action: act})
		}
	}
	return Result{States: len(arena), Exhausted: true}, nil
}
