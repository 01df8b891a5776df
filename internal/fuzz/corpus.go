package fuzz

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/protocol"
	"repro/internal/trace"
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

// corpus is a campaign's retained inputs in admission order, and the
// storage they are copied into: chunks of ops, decisions and records (an
// Entry with the Input it points to), which the Run goroutine's kit keeps
// from one campaign to the next and resets when it is taken. A campaign's
// candidates live in a scratch input, so each admitted input is copied; a
// chunk is never moved, and nothing it has handed out is rewritten before
// the reset, so the corpus snapshots parallel workers read stay valid for
// the campaign. Corpus inputs are read-only: candidates are copied out of
// them (Input.copyFrom), and every handed-out slice's capacity is its
// length. Nothing a Result holds points into a corpus, and a kit returns
// to the pool only after every worker of its campaign has returned.
type corpus struct {
	entries []*Entry
	recs    slab[record]
	ops     slab[Op]
	decs    slab[trace.Decision]
}

// record is one admitted input's records, stored together.
type record struct {
	entry Entry
	input Input
}

// newCorpus returns an empty corpus whose first chunks are small: a cold
// kit's first campaign pays little more than exact-size copies would.
func newCorpus() *corpus {
	return &corpus{recs: slab[record]{first: 64}, ops: slab[Op]{first: 4096}, decs: slab[trace.Decision]{first: 4096}}
}

// reset empties the corpus and keeps its chunks for the next campaign.
func (s *corpus) reset() {
	s.entries = s.entries[:0]
	s.recs.reset()
	s.ops.reset()
	s.decs.reset()
}

// admit appends in to the corpus as an entry contributing fresh coverage
// points, copied as Trim copies it, with the decision-stream tails res did
// not consume cut off, and returns the copy.
func (s *corpus) admit(in *Input, res *ExecResult, fresh int) *Input {
	data, ack := consumed(in, res)
	ops := s.ops.take(len(in.Ops))
	copy(ops, in.Ops)
	d := s.decs.take(len(data) + len(ack))
	nd := copy(d, data)
	copy(d[nd:], ack)
	r := &s.recs.take(1)[0]
	r.input = Input{Ops: ops, Data: d[:nd:nd], Ack: d[nd:], Corrupt: in.Corrupt.clone()}
	r.entry = Entry{Input: &r.input, NewPoints: fresh}
	s.entries = append(s.entries, &r.entry)
	return &r.input
}

// slab hands out slices of T from chunks it keeps: the first chunk holds
// first elements, each later one twice as many as the one before, up to
// 64 times first, or as many as the request that opens it. A handed-out
// slice's capacity is its length. A chunk is never moved, and reset keeps
// every chunk for reuse, so what the slab hands out stays valid until its
// reset.
type slab[T any] struct {
	first  int
	chunks [][]T
	i, off int // the chunk in use, and the offset of its free part
}

// take returns a slice of n elements for the caller to overwrite: after a
// reset they hold what an earlier campaign left there. A request the chunk
// in use has no room for moves on to the next chunk, or opens a new one.
func (s *slab[T]) take(n int) []T {
	for ; s.i < len(s.chunks); s.i, s.off = s.i+1, 0 {
		if c := s.chunks[s.i]; s.off+n <= len(c) {
			s.off += n
			return c[s.off-n : s.off : s.off]
		}
	}
	size := s.first
	if k := len(s.chunks); k > 0 {
		size = min(2*len(s.chunks[k-1]), 64*s.first)
	}
	s.chunks = append(s.chunks, make([]T, max(size, n)))
	s.off = n
	return s.chunks[s.i][:n:n]
}

func (s *slab[T]) reset() { s.i, s.off = 0, 0 }

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
		if err := trace.WriteAtomic(path, 0o644, func(w io.Writer) error { _, err := w.Write(b); return err }); err != nil {
			return fmt.Errorf("fuzz: save corpus entry: %w", err)
		}
	}
	return nil
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
