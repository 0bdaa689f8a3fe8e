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

// fuzzFixed lists every proper subset of allKinds' four positions, as
// fixed columns: FuzzDecodeTupleSet decodes each input under all of them.
var fuzzFixed = func() [][]int {
	var out [][]int
	for mask := 0; mask < 15; mask++ {
		var fixed []int
		for j := 0; j < 4; j++ {
			if mask&(1<<j) != 0 {
				fixed = append(fixed, j)
			}
		}
		out = append(out, fixed)
	}
	return out
}()

// FuzzDecodeTupleSet: arbitrary bytes against a schema of all four kinds,
// under every proper subset of its columns as fixed columns, must never
// panic, and accepted tuple sets must re-encode under the same fixed
// columns to exactly their input, so a FLOAT NaN or −0 comes back
// bit-exact whether it is fixed or not.
func FuzzDecodeTupleSet(f *testing.F) {
	row := func(id int64, name string, score float64, ok bool) Tuple {
		return Tuple{Int(id), String_(name), Float(score), Bool(ok)}
	}
	enc := func(fixed []int, rows ...Tuple) []byte {
		b, err := EncodeTupleSet(rows, fixed)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(enc(nil, row(1, "a", 1.5, true), row(2, "b", -2, false)))
	f.Add(enc(nil))
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	long := enc(nil, row(3, strings.Repeat("t", 200), 0, true))
	f.Add(long)
	// A one-byte TEXT whose length is padded to two varint bytes, then
	// long's FLOAT and BOOL; the decoder rejects the padding.
	f.Add(append([]byte{0x01, 0, 0, 0, 0, 0, 0, 0, 3, 0x81, 0x00, 't'}, long[len(long)-9:]...))
	boolTwo := enc(nil, row(4, "", 0, false))
	boolTwo[len(boolTwo)-1] = 2
	f.Add(boolTwo)
	f.Add(enc(nil, row(5, "n", math.NaN(), true), row(6, "z", math.Copysign(0, -1), false)))
	f.Add(enc(nil, row(7, "q", math.Float64frombits(0x7FF0_0000_0000_0001), true)))
	// Fixed columns: a one-row set keyed on the INT, two rows keyed on a
	// TEXT, and rows that are all fixed columns but the BOOL, keyed on a
	// NaN.
	f.Add(enc([]int{0}, row(8, "one", 2.5, true)))
	f.Add(enc([]int{1}, row(9, "key", 1, true), row(10, "key", -0.5, false)))
	f.Add(enc([]int{0, 1, 2}, row(11, "k", math.NaN(), true), row(11, "k", math.NaN(), false), row(11, "k", math.NaN(), true)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fixed := range fuzzFixed {
			tuples, err := DecodeTupleSet(allKinds, fixed, data)
			if err != nil {
				continue
			}
			again, err := EncodeTupleSet(tuples, fixed)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("fixed %v: tuple set re-encoding mismatch (%v)", fixed, err)
			}
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
