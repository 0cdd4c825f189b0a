package snap

import (
	"bytes"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"polystyrene/internal/space"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var w Writer
	w.U64(0xdeadbeefcafef00d)
	w.U32(42)
	w.I64(-7)
	w.Int(123456)
	w.F64(math.NaN())
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.String("hello, snapshot")
	w.Len(3)
	w.Bool(true)
	w.Bool(true)
	w.Bool(true)

	r := NewReader(w.Bytes())
	if got := r.U64(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.U32(); got != 42 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.I64(); got != -7 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); !math.IsNaN(got) {
		t.Errorf("F64 NaN = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 -Inf = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.String(); got != "hello, snapshot" {
		t.Errorf("String = %q", got)
	}
	if got := r.Len(1); got != 3 {
		t.Errorf("Len = %d", got)
	}
	for i := 0; i < 3; i++ {
		if !r.Bool() {
			t.Errorf("counted item %d lost", i)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestLenBoundsAllocation(t *testing.T) {
	var w Writer
	w.Len(1 << 40)
	r := NewReader(w.Bytes())
	if got := r.Len(8); got != 0 {
		t.Errorf("bogus Len returned %d", got)
	}
	if r.Err() == nil {
		t.Fatal("implausible count accepted")
	}
}

func TestBoolRejectsGarbage(t *testing.T) {
	r := NewReader([]byte{7})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("Bool accepted byte 7")
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U64() // truncated: latches the error
	if r.Err() == nil {
		t.Fatal("truncated U64 accepted")
	}
	first := r.Err()
	r.U64()
	_ = r.String()
	if r.Err() != first {
		t.Fatal("sticky error was replaced")
	}
}

func TestSectionBounds(t *testing.T) {
	var inner Writer
	inner.U64(11)
	var w Writer
	w.Section(inner.Bytes())
	w.U64(99)

	r := NewReader(w.Bytes())
	sub := r.Section()
	if got := sub.U64(); got != 11 {
		t.Errorf("section U64 = %d", got)
	}
	if err := CloseSection("test", sub); err != nil {
		t.Fatalf("CloseSection: %v", err)
	}
	// The sub-reader must not see past its boundary.
	sub2 := NewReader(w.Bytes())
	s := sub2.Section()
	s.U64()
	s.U64()
	if s.Err() == nil {
		t.Fatal("section over-read was not detected")
	}
	if got := r.U64(); got != 99 {
		t.Errorf("outer U64 after section = %d", got)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	body := []byte("engine state goes here")
	enc := Encode("engine", body)
	got, err := Decode("engine", enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body mismatch: %q", got)
	}
}

func TestEnvelopeIORoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "scenario", []byte{1, 2, 3}); err != nil {
		t.Fatalf("WriteEnvelope: %v", err)
	}
	got, err := ReadEnvelope(&buf, "scenario")
	if err != nil {
		t.Fatalf("ReadEnvelope: %v", err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("body mismatch: %v", got)
	}
}

func TestEnvelopeRejectsCorruption(t *testing.T) {
	enc := Encode("engine", []byte("state"))
	// Flip every byte in turn: each single-byte corruption must be caught.
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := Decode("engine", bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

func TestEnvelopeRejectsTruncation(t *testing.T) {
	enc := Encode("engine", []byte("0123456789abcdef"))
	for n := 0; n < len(enc); n++ {
		if _, err := Decode("engine", enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestEnvelopeRejectsWrongKind(t *testing.T) {
	enc := Encode("engine", []byte("state"))
	_, err := Decode("scenario", enc)
	if err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("wrong kind accepted or unclear error: %v", err)
	}
}

func TestEnvelopeRejectsWrongVersion(t *testing.T) {
	// Hand-build an envelope with version+1 and a valid checksum: the
	// version gate, not the checksum, must reject it.
	var w Writer
	w.buf = append(w.buf, magic[:]...)
	w.String("engine")
	w.U32(Version + 1)
	w.Section([]byte("future state"))
	enc := appendChecksum(w.Bytes())
	_, err := Decode("engine", enc)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted or unclear error: %v", err)
	}
}

// TestEnvelopeTruncationDiagnostics pins the error message of every
// truncation class at the envelope layer: an operator reading a recovery
// log must be able to tell an empty or torn file (a crash mid-write) from
// genuine bit-level corruption.
func TestEnvelopeTruncationDiagnostics(t *testing.T) {
	enc := Encode("engine", []byte("0123456789abcdef"))
	headerLen := len(magic) + 8 + len("engine") + 4 // magic + kind + version
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "empty snapshot"},
		{"empty-slice", []byte{}, "empty snapshot"},
		{"partial-magic", enc[:3], "shorter than the 8-byte magic"},
		{"magic-only", enc[:len(magic)], "header-only snapshot"},
		{"header-under-checksum", enc[:len(magic)+7], "header-only snapshot"},
		{"mid-kind", enc[:len(magic)+10], "malformed envelope header"},
		{"header-only", enc[:headerLen], "malformed envelope header"},
		{"body-length-cut", enc[:headerLen+4], "malformed envelope header"},
		{"mid-body", enc[:len(enc)-12], "declares a 16-byte body"},
		{"checksum-cut", enc[:len(enc)-3], "declares a 16-byte body"},
		{"not-a-snapshot", []byte("#!/bin/sh\necho hello\n"), "bad magic"},
		{"bit-flip-body", flipByte(enc, headerLen+10), "checksum mismatch"},
		{"bit-flip-checksum", flipByte(enc, len(enc)-1), "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode("engine", tc.data)
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// ReadEnvelope must surface the identical diagnosis.
			_, rerr := ReadEnvelope(bytes.NewReader(tc.data), "engine")
			if rerr == nil || !strings.Contains(rerr.Error(), tc.want) {
				t.Fatalf("ReadEnvelope error %q does not mention %q", rerr, tc.want)
			}
		})
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

func appendChecksum(b []byte) []byte {
	// Mirrors Encode's trailer for hand-built test envelopes.
	h := fnv.New64a()
	h.Write(b)
	var w Writer
	w.buf = append(w.buf, b...)
	w.U64(h.Sum64())
	return w.buf
}

// TestArenaTailRoundTrip checks that the tail of a position arena — the
// pinned positions of late joiners — round-trips, and that a record out
// of sequence or of the wrong dimension is refused.
func TestArenaTailRoundTrip(t *testing.T) {
	a := space.NewArena(2)
	for i := 0; i < 5; i++ {
		a.Set(i, space.Point{float64(i), -float64(i)})
	}
	var w Writer
	WriteArenaTail(&w, a, 3)
	got, err := ReadArenaTail(NewReader(w.Bytes()), 2, 3)
	if err != nil || !slices.Equal(got, []float64{3, -3, 4, -4}) {
		t.Fatalf("tail round trip = %v, %v", got, err)
	}

	if _, err := ReadArenaTail(NewReader(w.Bytes()), 2, 2); err == nil {
		t.Fatal("tail starting at slot 3 accepted where slot 2 was due")
	}
	if _, err := ReadArenaTail(NewReader(w.Bytes()), 3, 3); err == nil {
		t.Fatal("tail of 2-D records accepted as 3-D")
	}
}
