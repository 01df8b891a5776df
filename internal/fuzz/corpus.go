package fuzz

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/protocol"
)

// Corpus management: the retained input set and its on-disk form.
//
// The in-memory corpus is an append-only slice owned by the merger
// goroutine; workers see it through immutable snapshots. On disk a corpus is
// a directory of NFZI files named by content hash, so saving is idempotent,
// resuming is re-reading the directory, and two runs can share a corpus
// without coordination.

// Entry is one retained corpus input with its discovery bookkeeping.
type Entry struct {
	Input *Input
	// NewPoints is the number of coverage points this entry contributed
	// when it was admitted (its "energy" for parent selection).
	NewPoints int
}

// inputID is the content hash used as the corpus filename stem.
func inputID(in *Input) string {
	h := fnv.New64a()
	_, _ = h.Write(in.Encode())
	return fmt.Sprintf("%016x", h.Sum64())
}

// SaveCorpus writes every input to dir as <hash>.nfzi, creating dir if
// needed. Existing files are left alone (content-addressed names make
// rewrites no-ops). Each entry is written to a temporary file in dir,
// synced and renamed into place once complete, so an entry file is never a
// partial write, and a temporary left behind by a killed campaign (its name
// ends in ".tmp" and a number) is no corpus entry to LoadCorpus.
// Entries are created 0644 before the umask, as os.WriteFile would.
func SaveCorpus(dir string, inputs []*Input) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fuzz: corpus dir: %w", err)
	}
	for _, in := range inputs {
		path := filepath.Join(dir, inputID(in)+".nfzi")
		if _, err := os.Stat(path); err == nil {
			continue
		}
		b := in.Encode()
		if err := writeAtomic(path, 0o644, func(w io.Writer) error { _, err := w.Write(b); return err }); err != nil {
			return fmt.Errorf("fuzz: save corpus entry: %w", err)
		}
	}
	return nil
}

// writeAtomic creates or replaces path with what write produces. It writes
// a temporary file in path's directory, named path's base name plus ".tmp"
// and the first number no other file there has (another writer's, or one a
// killed process left), created with perm (before the umask); syncs it; and
// renames it over path only once write, the sync and the close succeed. On
// failure it removes the temporary and leaves path alone.
func writeAtomic(path string, perm os.FileMode, write func(io.Writer) error) error {
	var f *os.File
	err := fs.ErrExist
	for i := 0; errors.Is(err, fs.ErrExist); i++ {
		f, err = os.OpenFile(path+".tmp"+strconv.Itoa(i), os.O_WRONLY|os.O_CREATE|os.O_EXCL, perm)
	}
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name())
	}
	return err
}

// saveEntry persists one input to dir (no-op if dir is empty).
func saveEntry(dir string, in *Input) error {
	if dir == "" {
		return nil
	}
	return SaveCorpus(dir, []*Input{in})
}

// Distill reduces a corpus to a covering subset for proto by greedy set
// cover: every input is executed against proto once, then inputs are
// admitted in repeated passes, each pass taking the input contributing the
// most still-uncovered coverage points, until no remaining input contributes
// anything. The classic use is cross-protocol corpus transfer — schedules
// that explored one protocol's joint-state space are distilled against the
// *target* protocol, and the survivors seed its campaign; the
// channel-behaviour structure they carry (strand, accumulate, re-deliver
// late) transfers even though the endpoint state spaces differ.
func Distill(proto protocol.Protocol, inputs []*Input) []*Input {
	type scored struct {
		in     *Input
		points []uint64
	}
	pool := make([]*scored, 0, len(inputs))
	for _, in := range inputs {
		res := Execute(proto, in, false)
		pool = append(pool, &scored{in: in, points: res.Points})
	}
	covered := make(coverSet)
	var kept []*Input
	for len(pool) > 0 {
		best, bestFresh := -1, 0
		for i, s := range pool {
			if fresh := covered.countNew(s.points); fresh > bestFresh {
				best, bestFresh = i, fresh
			}
		}
		if best < 0 {
			break
		}
		covered.addAll(pool[best].points)
		kept = append(kept, pool[best].in)
		pool = append(pool[:best], pool[best+1:]...)
	}
	return kept
}

// LoadCorpus reads every *.nfzi file in dir, in deterministic (sorted-name)
// order. A missing directory is an empty corpus; an undecodable file is an
// error (a corpus dir is machine-written — corruption should be loud).
func LoadCorpus(dir string) ([]*Input, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fuzz: read corpus dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".nfzi" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	inputs := make([]*Input, 0, len(names))
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("fuzz: read corpus entry: %w", err)
		}
		in, err := Decode(b)
		if err != nil {
			return nil, fmt.Errorf("fuzz: corpus entry %s: %w", name, err)
		}
		inputs = append(inputs, in)
	}
	return inputs, nil
}
