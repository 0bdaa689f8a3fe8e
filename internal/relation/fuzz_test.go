package relation

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzDecodeValue: arbitrary bytes must never panic the decoder, and any
// accepted value must re-encode to exactly the consumed bytes.
func FuzzDecodeValue(f *testing.F) {
	f.Add(Int(42).Encode(nil))
	f.Add(String_("hello").Encode(nil))
	f.Add(Float(1.5).Encode(nil))
	f.Add(Bool(true).Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeValue(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := v.Encode(nil)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encoding mismatch: % x vs % x", re, data[:n])
		}
	})
}

// FuzzDecodeTupleSet: arbitrary bytes against a schema of all four kinds
// must never panic, and accepted tuple sets must re-encode to exactly
// their input, so a FLOAT NaN or −0 comes back bit-exact.
func FuzzDecodeTupleSet(f *testing.F) {
	row := func(id int64, name string, score float64, ok bool) Tuple {
		return Tuple{Int(id), String_(name), Float(score), Bool(ok)}
	}
	f.Add(EncodeTupleSet([]Tuple{row(1, "a", 1.5, true), row(2, "b", -2, false)}))
	f.Add(EncodeTupleSet(nil))
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	long := EncodeTupleSet([]Tuple{row(3, strings.Repeat("t", 200), 0, true)})
	f.Add(long)
	// A one-byte TEXT whose length is padded to two varint bytes, then
	// long's FLOAT and BOOL; the decoder rejects the padding.
	f.Add(append([]byte{0x01, 0, 0, 0, 0, 0, 0, 0, 3, 0x81, 0x00, 't'}, long[len(long)-9:]...))
	boolTwo := EncodeTupleSet([]Tuple{row(4, "", 0, false)})
	boolTwo[len(boolTwo)-1] = 2
	f.Add(boolTwo)
	f.Add(EncodeTupleSet([]Tuple{row(5, "n", math.NaN(), true), row(6, "z", math.Copysign(0, -1), false)}))
	f.Add(EncodeTupleSet([]Tuple{row(7, "q", math.Float64frombits(0x7FF0_0000_0000_0001), true)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		tuples, err := DecodeTupleSet(allKinds, data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeTupleSet(tuples), data) {
			t.Fatal("tuple set re-encoding mismatch")
		}
	})
}

// FuzzReadCSV: arbitrary CSV input must never panic the loader; accepted
// relations must write back and reload to the same multiset.
func FuzzReadCSV(f *testing.F) {
	f.Add("id:INT,name:TEXT\n1,a\n2,b\n")
	f.Add("x:FLOAT\n1.5\n")
	f.Add("b:BOOL\ntrue\nfalse\n")
	f.Add("id:INT\n")
	f.Add("")
	f.Add("a:INT,a:INT\n1,2\n")
	f.Fuzz(func(t *testing.T, input string) {
		r, err := ReadCSV("F", strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(r, &buf); err != nil {
			t.Fatalf("accepted relation does not write: %v", err)
		}
		r2, err := ReadCSV("F", &buf)
		if err != nil {
			t.Fatalf("written CSV does not reload: %v", err)
		}
		if !r2.EqualMultiset(r) {
			t.Fatal("CSV write/read not a roundtrip")
		}
	})
}
