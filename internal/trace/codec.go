package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"

	"repro/internal/ioa"
)

// The NFT on-disk format:
//
//	magic   "NFTRC"            (5 bytes)
//	version 0x01 or 0x02       (1 byte)
//	meta    uvarint count, then count × (string key, string value)
//	events  until EOF: kind byte + kind-specific fields
//
// Strings are uvarint length + bytes; signed ints are zigzag varints;
// directions and decisions are single bytes. The format is append-only and
// self-describing: a reader needs nothing but the file, and unknown trailing
// bytes fail loudly rather than silently.
//
// Version 2 differs from version 1 only in admitting the corrupted-start
// operations KindCorrupt and KindPoison (internal/stabilize). Encode stamps
// version 2 only when a log actually contains one of them, so every legacy
// log still round-trips byte-identically as version 1, and a version-1
// reader rejects corrupted-start logs at the header with a clear
// unsupported-version error instead of choking mid-stream on an unknown
// kind.

const (
	magic = "NFTRC"
	// versionV1 is the original format; versionV2 adds the corrupted-start
	// event kinds. version is the newest version this package reads.
	versionV1 = 1
	versionV2 = 2
	version   = versionV2
)

// requiresV2 reports whether the event kind is only encodable in format
// version 2.
func requiresV2(k Kind) bool { return k == KindCorrupt || k == KindPoison }

// ErrFormat is wrapped by decode errors for malformed trace files.
var ErrFormat = errors.New("trace: malformed trace file")

// Reader streams a trace log from an io.Reader.
type Reader struct {
	br      byteReader
	meta    map[string]string
	version byte
	buf     []byte // scratch the short strings are read through
}

// byteReader is what the decoder reads through.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// NewReader validates the header and returns a streaming reader. An input
// that is already an io.ByteReader, such as a bytes.Reader over an
// in-memory blob, is read directly; any other is buffered.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrFormat, err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, head[:len(magic)])
	}
	v := head[len(magic)]
	if v < versionV1 || v > version {
		return nil, fmt.Errorf("%w: unsupported version %d (have %d)", ErrFormat, v, version)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: meta count: %v", ErrFormat, err)
	}
	// Cap the allocation hint: n is attacker-controlled in a corrupt file,
	// and each entry needs at least two bytes of input anyway.
	hint := n
	if hint > 1024 {
		hint = 1024
	}
	tr := &Reader{br: br, meta: make(map[string]string, hint), version: v}
	for i := uint64(0); i < n; i++ {
		k, err := readString(br, &tr.buf)
		if err != nil {
			return nil, fmt.Errorf("%w: meta key: %v", ErrFormat, err)
		}
		v, err := readString(br, &tr.buf)
		if err != nil {
			return nil, fmt.Errorf("%w: meta value: %v", ErrFormat, err)
		}
		tr.meta[k] = v
	}
	return tr, nil
}

// Meta returns the file's metadata.
func (tr *Reader) Meta() map[string]string { return tr.meta }

// Next decodes the next event; it returns io.EOF at a clean end of log.
// Corrupted-start events in a stream stamped version 1 are rejected: a
// version-1 producer cannot have written them, so their presence means the
// file is corrupt.
func (tr *Reader) Next() (Event, error) {
	e, err := readEvent(tr.br, &tr.buf)
	if err == nil && requiresV2(e.Kind) && tr.version < versionV2 {
		return Event{}, fmt.Errorf("%w: event %s requires format version %d, file stamped version %d", ErrFormat, e.Kind, versionV2, tr.version)
	}
	return e, err
}

// Encode writes the whole log to w in the NFT format, stamping version 2
// only when the log contains corrupted-start events — legacy logs encode
// byte-identically to the version-1 format.
func (l *Log) Encode(w io.Writer) error {
	_, err := w.Write(l.appendTo(nil))
	return err
}

// appendTo appends Encode's bytes to b: the header, the metadata in key
// order, then the events.
func (l *Log) appendTo(b []byte) []byte {
	v := byte(versionV1)
	for _, e := range l.Events {
		if requiresV2(e.Kind) {
			v = versionV2
			break
		}
	}
	b = append(append(b, magic...), v)
	keys := make([]string, 0, len(l.Meta))
	//nfvet:allow maprange (keys are collected then sorted before use)
	for k := range l.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = appendString(b, l.Meta[k])
	}
	for _, e := range l.Events {
		b = appendEvent(b, e)
	}
	return b
}

// ReadLog decodes a complete log from r.
func ReadLog(r io.Reader) (*Log, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	l := NewLog(tr.Meta())
	for {
		e, err := tr.Next()
		if err == io.EOF {
			return l, nil
		}
		if err != nil {
			return nil, err
		}
		l.Events = append(l.Events, e)
	}
}

// WriteFile writes the log to path in the NFT format. A regular file at
// path, or none, is replaced whole and never left partial: the log goes to
// a temporary file in path's directory (WriteAtomic, with os.Create's
// mode), which is synced and renamed over path once complete, so a hard
// link to the old file keeps the old log. Anything else at path (a device
// such as /dev/stdout, a pipe, a symlink) is written through in place, as
// os.Create would.
func WriteFile(path string, l *Log) error {
	if fi, err := os.Lstat(path); err == nil && !fi.Mode().IsRegular() {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := l.Encode(f); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	return WriteAtomic(path, 0o666, l.Encode)
}

// WriteAtomic creates or replaces path with what write produces, so path
// is never a partial write. It writes a temporary file in path's directory,
// named path's base name plus ".tmp" and the first number no other file
// there has (another writer's, or one a killed process left), created with
// perm (before the umask); syncs it; and renames it over path only once
// write, the sync and the close succeed. On failure it removes the
// temporary and leaves path alone.
func WriteAtomic(path string, perm os.FileMode, write func(io.Writer) error) error {
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

// ReadFile reads an NFT trace file.
func ReadFile(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLog(f)
}

// --- event encoding ---

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendEvent(b []byte, e Event) []byte {
	b = append(b, byte(e.Kind))
	switch e.Kind {
	case KindSubmit, KindRecvMsg:
		b = binary.AppendVarint(b, int64(e.Msg.ID))
		b = appendString(b, e.Msg.Payload)
	case KindTransmit, KindDrain:
		// no fields
	case KindStale, KindDropStale, KindSendPkt, KindRecvPkt, KindPoison:
		b = append(b, byte(e.Dir))
		b = appendString(b, e.Pkt.Header)
		b = appendString(b, e.Pkt.Payload)
	case KindCorrupt:
		b = binary.AppendVarint(b, int64(e.Index))
		b = binary.AppendUvarint(b, e.Bits)
	case KindDecision:
		b = append(b, byte(e.Dir), byte(e.Decision))
	case KindRNG:
		b = binary.AppendUvarint(b, e.Bits)
	case KindVerdict:
		b = appendString(b, e.Property)
		b = binary.AppendVarint(b, int64(e.Index))
		b = appendString(b, e.Detail)
	}
	return b
}

// readString reads a length-prefixed string. One of at most shortBytes is
// read through *scratch, grown as needed, and copied once into the string;
// a longer one is read as readBytes reads it.
func readString(br byteReader, scratch *[]byte) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	if n > shortBytes {
		buf, err := readBytes(br, n)
		return string(buf), err
	}
	b := slices.Grow((*scratch)[:0], int(n))[:n]
	*scratch = b
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// shortBytes is a bufio buffer's worth: the most a length read from the
// input may claim up front.
const shortBytes = 4096

// readBytes reads exactly n bytes. Beyond shortBytes, its buffer grows only
// as the bytes arrive, so a corrupt length costs no more memory than the
// input holds.
func readBytes(r io.Reader, n uint64) ([]byte, error) {
	if n <= shortBytes {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	b, err := io.ReadAll(io.LimitReader(r, int64(min(n, math.MaxInt64))))
	if err == nil && uint64(len(b)) < n {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

func readEvent(br byteReader, scratch *[]byte) (Event, error) {
	kb, err := br.ReadByte()
	if err == io.EOF {
		return Event{}, io.EOF
	}
	if err != nil {
		return Event{}, fmt.Errorf("%w: event kind: %v", ErrFormat, err)
	}
	e := Event{Kind: Kind(kb)}
	fail := func(field string, err error) (Event, error) {
		return Event{}, fmt.Errorf("%w: %s %s: %v", ErrFormat, e.Kind, field, err)
	}
	switch e.Kind {
	case KindSubmit, KindRecvMsg:
		id, err := binary.ReadVarint(br)
		if err != nil {
			return fail("msg id", err)
		}
		e.Msg.ID = int(id)
		if e.Msg.Payload, err = readString(br, scratch); err != nil {
			return fail("payload", err)
		}
	case KindTransmit, KindDrain:
		// no fields
	case KindStale, KindDropStale, KindSendPkt, KindRecvPkt, KindPoison:
		db, err := br.ReadByte()
		if err != nil {
			return fail("dir", err)
		}
		e.Dir = ioa.Dir(db)
		if e.Pkt.Header, err = readString(br, scratch); err != nil {
			return fail("header", err)
		}
		if e.Pkt.Payload, err = readString(br, scratch); err != nil {
			return fail("payload", err)
		}
	case KindCorrupt:
		idx, err := binary.ReadVarint(br)
		if err != nil {
			return fail("tidx", err)
		}
		e.Index = int(idx)
		if e.Bits, err = binary.ReadUvarint(br); err != nil {
			return fail("ridx", err)
		}
	case KindDecision:
		db, err := br.ReadByte()
		if err != nil {
			return fail("dir", err)
		}
		dc, err := br.ReadByte()
		if err != nil {
			return fail("decision", err)
		}
		e.Dir, e.Decision = ioa.Dir(db), Decision(dc)
	case KindRNG:
		bits, err := binary.ReadUvarint(br)
		if err != nil {
			return fail("bits", err)
		}
		e.Bits = bits
	case KindVerdict:
		var err error
		if e.Property, err = readString(br, scratch); err != nil {
			return fail("property", err)
		}
		idx, err := binary.ReadVarint(br)
		if err != nil {
			return fail("index", err)
		}
		e.Index = int(idx)
		if e.Detail, err = readString(br, scratch); err != nil {
			return fail("detail", err)
		}
	default:
		return Event{}, fmt.Errorf("%w: unknown event kind %d", ErrFormat, kb)
	}
	return e, nil
}
