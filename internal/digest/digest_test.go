package digest

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// The package must agree with the standard library's FNV-1a over the
// exact byte sequence each method documents.
func TestMatchesStdlibFNV1a(t *testing.T) {
	ref := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		ref.Write(buf[:])
	}

	h := New()
	if got, want := h.Sum(), ref.Sum64(); got != want {
		t.Fatalf("empty: %016x, want %016x", got, want)
	}

	h.Byte(0xFF)
	ref.Write([]byte{0xFF})

	h.U64(0x0102030405060708)
	word(0x0102030405060708)

	h.F64(-2.5)
	word(math.Float64bits(-2.5))

	h.Str("plc-firmware")
	word(uint64(len("plc-firmware")))
	ref.Write([]byte("plc-firmware"))

	h.Str("")
	word(0)

	h.Raw("diversify/evalspec/v1")
	ref.Write([]byte("diversify/evalspec/v1"))

	if got, want := h.Sum(), ref.Sum64(); got != want {
		t.Fatalf("mixed fields: %016x, want %016x", got, want)
	}
}

// Str's length prefix separates field boundaries that Raw alone would
// merge.
func TestStrIsLengthPrefixed(t *testing.T) {
	a, b := New(), New()
	a.Str("ab")
	a.Str("c")
	b.Str("a")
	b.Str("bc")
	if a.Sum() == b.Sum() {
		t.Fatal(`Str("ab")+Str("c") collides with Str("a")+Str("bc")`)
	}
	c, d := New(), New()
	c.Raw("ab")
	c.Raw("c")
	d.Raw("abc")
	if c.Sum() != d.Sum() {
		t.Fatal("Raw must concatenate without framing")
	}
}
