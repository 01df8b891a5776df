package analyze

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"io"
	"os"
	"sort"

	"repro/internal/trace"
)

// This file is the cross-package facts channel: per-package fact sets keyed
// by exported object, carried between compilation units either in memory
// (the standalone `nfvet check` driver analyzes packages in dependency
// order) or as gob-encoded vetx files (the `go vet -vettool` protocol, where
// cmd/go hands each unit the vetx outputs of its dependencies via
// PackageVetx and caches the unit's own VetxOutput). Facts are what lift the
// statekey purity fixpoint from package scope to module scope: a
// `StateKey → intern/mset helper → fmt.Sprintf` chain is invisible to a
// per-unit analysis, but the helper's unit exports an impurity fact and the
// StateKey's unit reads it back through the channel.

// PurityFact is the statekey analyzer's verdict on one exported function:
// fit or unfit for a state-key path. Pure facts are exported too (not just
// impurities), so an empty vetx file is distinguishable from "every helper
// here is pure" and the CI self-check can detect a silently-regressed
// channel.
type PurityFact struct {
	Impure bool
	// Reason chains the impurity back to its root, e.g.
	// "calls fmt.Sprintf (reflection-driven formatting on the hot path)".
	Reason string
}

// FactSet is one package's exported facts, keyed by object key (funcKey).
type FactSet struct {
	Purity map[string]PurityFact
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{Purity: make(map[string]PurityFact)}
}

// funcKey names a function object within its package: "Func" for top-level
// functions, "Type.Method" for methods (pointer receivers are keyed by the
// element type, so (*T).M and (T).M share the key "T.M").
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// exportableFunc reports whether a function's facts are reachable from other
// packages: exported top-level functions, and exported methods on exported
// types. (Interface-dispatched calls resolve to the interface's method
// object, which carries no fact — a documented approximation.)
func exportableFunc(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return true
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Exported()
}

// FactStore is one unit's view of the channel: the fact sets of its
// dependencies (read side) and the set it will export (write side).
type FactStore struct {
	imported map[string]*FactSet // by import path
	export   *FactSet
}

// NewFactStore returns a store with no imported facts.
func NewFactStore() *FactStore {
	return &FactStore{imported: make(map[string]*FactSet), export: NewFactSet()}
}

// NewFactStoreFrom returns a store reading from the given accumulated
// import-path → fact-set map (shared, not copied — the in-process driver
// grows one map across units).
func NewFactStoreFrom(imported map[string]*FactSet) *FactStore {
	return &FactStore{imported: imported, export: NewFactSet()}
}

// AddPackage records a dependency's fact set under its import path.
func (s *FactStore) AddPackage(path string, fs *FactSet) {
	if fs != nil {
		s.imported[path] = fs
	}
}

// ImportedPurity looks up the purity fact exported for the given function by
// its defining package's unit.
func (s *FactStore) ImportedPurity(fn *types.Func) (PurityFact, bool) {
	if s == nil || fn.Pkg() == nil {
		return PurityFact{}, false
	}
	fs := s.imported[fn.Pkg().Path()]
	if fs == nil {
		return PurityFact{}, false
	}
	f, ok := fs.Purity[funcKey(fn)]
	return f, ok
}

// ExportPurity records a purity fact for an object of the unit under
// analysis, to be written to its vetx output.
func (s *FactStore) ExportPurity(key string, f PurityFact) {
	if s == nil {
		return
	}
	s.export.Purity[key] = f
}

// Exported returns the unit's outgoing fact set.
func (s *FactStore) Exported() *FactSet {
	if s == nil {
		return NewFactSet()
	}
	return s.export
}

// The wire format is a gob of sorted entry slices rather than of the maps
// directly: gob serializes maps in iteration order, and vetx bytes must be
// deterministic (cmd/go content-addresses its vet action cache; flapping
// bytes would churn it, and this repo's discipline is that every artifact
// is byte-reproducible).

// factsWireVersion stamps the vetx payload; a reader refuses versions it
// does not know rather than misdecoding.
const factsWireVersion = 1

type purityEntry struct {
	Key    string
	Impure bool
	Reason string
}

type factsPayload struct {
	Version int
	Purity  []purityEntry
}

// EncodeFacts renders a fact set to its deterministic gob wire form.
func EncodeFacts(fs *FactSet) ([]byte, error) {
	payload := factsPayload{Version: factsWireVersion}
	//nfvet:allow maprange (entries are collected then sorted before encoding)
	for key, f := range fs.Purity {
		payload.Purity = append(payload.Purity, purityEntry{Key: key, Impure: f.Impure, Reason: f.Reason})
	}
	sort.Slice(payload.Purity, func(i, j int) bool { return payload.Purity[i].Key < payload.Purity[j].Key })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return nil, fmt.Errorf("encoding facts: %v", err)
	}
	return buf.Bytes(), nil
}

// DecodeFacts parses a vetx payload. Empty input decodes to an empty set:
// pre-facts builds of the tool wrote zero-byte vetx files, and cmd/go may
// replay them from its cache.
func DecodeFacts(data []byte) (*FactSet, error) {
	fs := NewFactSet()
	if len(data) == 0 {
		return fs, nil
	}
	var payload factsPayload
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&payload); err != nil {
		return nil, fmt.Errorf("decoding facts: %v", err)
	}
	if payload.Version != factsWireVersion {
		return nil, fmt.Errorf("decoding facts: unknown wire version %d", payload.Version)
	}
	for _, e := range payload.Purity {
		fs.Purity[e.Key] = PurityFact{Impure: e.Impure, Reason: e.Reason}
	}
	return fs, nil
}

// ReadFactsFile loads one dependency's vetx file.
func ReadFactsFile(path string) (*FactSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fs, err := DecodeFacts(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return fs, nil
}

// WriteFactsFile writes a unit's fact set to its vetx output, atomically:
// a killed run leaves the previous file or none, never a torn one.
func WriteFactsFile(path string, fs *FactSet) error {
	data, err := EncodeFacts(fs)
	if err != nil {
		return err
	}
	return trace.WriteAtomic(path, 0o666, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
