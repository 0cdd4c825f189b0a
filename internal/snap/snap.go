// Package snap implements the binary snapshot codec used by the
// deterministic checkpoint/restore machinery.
//
// A snapshot file is a single envelope:
//
//	magic    8 bytes  "PSYSNAP\x00"
//	kind     length-prefixed string ("engine", "scenario", "system", ...)
//	version  uint32
//	bodyLen  uint64
//	body     bodyLen bytes
//	checksum uint64 FNV-1a over every preceding byte
//
// All integers are little-endian. The body itself is a flat stream of
// length-prefixed primitives written by Writer and consumed by Reader.
// Decode verifies the magic, kind, version, length and checksum before
// returning the body, so callers can guarantee that a corrupted or
// truncated snapshot is rejected before any state has been mutated.
//
// Reader carries a sticky error: after the first malformed read every
// subsequent call returns a zero value, and the error is reported once at
// the end via Err. That keeps restore code linear — no per-field error
// plumbing — without ever silently accepting bad data.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
)

// Version is the current snapshot format version. Restore rejects any
// other version outright: the format has no cross-version migration.
const Version = 2

var magic = [8]byte{'P', 'S', 'Y', 'S', 'N', 'A', 'P', 0}

// Writer accumulates a snapshot body in memory.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated body. The slice aliases the writer's
// internal buffer and is invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// I64 appends a signed integer as its two's-complement uint64 image.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int via I64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 by bit pattern, preserving NaN payloads and ±Inf.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a single 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Len appends a non-negative count. Restore reads it back with
// Reader.Len, which bounds it against the remaining input.
func (w *Writer) Len(n int) { w.U64(uint64(n)) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.buf = append(w.buf, s...)
}

// Section appends a length-prefixed nested body, so a reader can hand a
// bounded sub-reader to the code that owns the section and detect
// over- or under-reads at the section boundary.
func (w *Writer) Section(body []byte) {
	w.Len(len(body))
	w.buf = append(w.buf, body...)
}

// Reader consumes a snapshot body produced by Writer. The first
// malformed read latches an error; every later call is a no-op returning
// zero values.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader over body.
func NewReader(body []byte) *Reader { return &Reader{data: body} }

// Err reports the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left unread.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail("truncated body: need %d bytes at offset %d, have %d", n, r.off, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I64 reads a signed integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int via I64.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a single byte, rejecting anything but 0 or 1.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte %#x at offset %d", b[0], r.off-1)
		return false
	}
}

// Len reads a count written by Writer.Len and bounds it: each counted
// item must occupy at least itemBytes of the remaining input (use 1 for
// variable-size items). This caps allocation on malformed input so a bad
// length fails cleanly instead of attempting a huge make().
func (r *Reader) Len(itemBytes int) int {
	v := r.U64()
	if r.err != nil {
		return 0
	}
	if itemBytes < 1 {
		itemBytes = 1
	}
	if v > uint64(r.Remaining()/itemBytes) {
		r.fail("implausible count %d at offset %d (%d bytes remain)", v, r.off-8, r.Remaining())
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Section reads a length-prefixed nested body and returns a bounded
// sub-reader over it.
func (r *Reader) Section() *Reader {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return &Reader{err: r.err}
	}
	return NewReader(b)
}

// CloseSection folds a sub-reader's outcome back into an error: the
// section must have decoded cleanly and been consumed exactly.
func CloseSection(name string, sub *Reader) error {
	if err := sub.Err(); err != nil {
		return fmt.Errorf("snap: section %q: %w", name, err)
	}
	if sub.Remaining() != 0 {
		return fmt.Errorf("snap: section %q: %d trailing bytes", name, sub.Remaining())
	}
	return nil
}

// Encode wraps a body in the versioned, checksummed envelope.
func Encode(kind string, body []byte) []byte {
	var w Writer
	w.buf = append(w.buf, magic[:]...)
	w.String(kind)
	w.U32(Version)
	w.Section(body)
	h := fnv.New64a()
	h.Write(w.buf)
	w.U64(h.Sum64())
	return w.buf
}

// Decode verifies an envelope end to end — magic, kind, version, body
// length and whole-file checksum — and returns the body. It never returns
// a partially validated body: any defect yields a nil body and an error.
//
// Truncation classes are diagnosed before the checksum so an interrupted
// or torn write produces an actionable message ("empty snapshot",
// "declares an N-byte body but only M remain") rather than a generic
// corruption report; the checksum then covers every defect the structural
// checks cannot see.
func Decode(kind string, data []byte) ([]byte, error) {
	const tail = 8 // trailing checksum
	if len(data) == 0 {
		return nil, fmt.Errorf("snap: empty snapshot (0 bytes): not a snapshot envelope")
	}
	if len(data) < len(magic) {
		return nil, fmt.Errorf("snap: truncated snapshot: %d bytes is shorter than the %d-byte magic (interrupted write?)",
			len(data), len(magic))
	}
	var m [8]byte
	copy(m[:], data)
	if m != magic {
		return nil, fmt.Errorf("snap: bad magic %q: not a snapshot file", m[:])
	}
	if len(data) < len(magic)+tail {
		return nil, fmt.Errorf("snap: header-only snapshot: %d bytes cannot hold the trailing checksum (interrupted write?)",
			len(data))
	}
	// Structural pass over the unverified envelope, tail excluded: a
	// truncated file is reported as such, with the declared-vs-present
	// byte counts, instead of as a bare checksum mismatch.
	r := NewReader(data[len(magic) : len(data)-tail])
	gotKind := r.String()
	version := r.U32()
	bodyLen := r.U64()
	if r.Err() == nil && bodyLen > uint64(r.Remaining()) {
		return nil, fmt.Errorf("snap: truncated snapshot: envelope declares a %d-byte body but only %d bytes remain (interrupted write?)",
			bodyLen, r.Remaining())
	}
	body := r.take(int(bodyLen))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("snap: malformed envelope header: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("snap: %d trailing bytes after body", r.Remaining())
	}
	h := fnv.New64a()
	h.Write(data[:len(data)-tail])
	if got := binary.LittleEndian.Uint64(data[len(data)-tail:]); got != h.Sum64() {
		return nil, fmt.Errorf("snap: checksum mismatch: file %#016x, computed %#016x (corrupted snapshot)", got, h.Sum64())
	}
	if gotKind != kind {
		return nil, fmt.Errorf("snap: snapshot kind %q, want %q", gotKind, kind)
	}
	if version != Version {
		return nil, fmt.Errorf("snap: unsupported snapshot version %d (this build reads version %d)", version, Version)
	}
	return body, nil
}

// WriteEnvelope encodes body and writes the envelope to w.
func WriteEnvelope(w io.Writer, kind string, body []byte) error {
	_, err := w.Write(Encode(kind, body))
	return err
}

// ReadEnvelope buffers all of r and decodes it. Snapshots are verified
// whole-file before any restore begins, so streaming decode is
// deliberately not offered.
func ReadEnvelope(r io.Reader, kind string) ([]byte, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snap: reading snapshot: %w", err)
	}
	return Decode(kind, data)
}
