package codec

import (
	"bytes"
	"strings"
	"testing"
)

// fields is a message with one field of every kind.
type fields struct {
	u       uint64
	i       int
	b       bool
	s       string
	raw     []byte
	fixed   []byte
	strs    []string
	blobs   [][]byte
	word    uint64
	present byte
}

func (f fields) EncodeTo(e *Encoder) {
	e.Uint(f.u)
	e.Int(int64(f.i))
	e.Bool(f.b)
	e.Text(f.s)
	e.Bytes(f.raw)
	e.Fixed(f.fixed, 4)
	e.Strings(f.strs)
	e.ByteStrings(f.blobs)
	e.Uint64(f.word)
	e.Byte(f.present)
}

func (f *fields) DecodeFrom(d *Decoder) {
	f.u, f.i, f.b = d.Uint(), d.Int(), d.Bool()
	f.s, f.raw, f.fixed = d.Text(), d.Bytes(), d.Fixed(4)
	f.strs, f.blobs = d.Strings(), d.ByteStrings()
	f.word, f.present = d.Uint64(), d.Byte()
}

func TestRoundTrip(t *testing.T) {
	in := fields{u: 300, i: -70, b: true, s: "join", raw: []byte{9, 8}, fixed: []byte{1, 2, 3, 4},
		strs: []string{"a", ""}, blobs: [][]byte{{7}, nil}, word: 1 << 60, present: 0xfe}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out fields
	if err := Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	again, err := Marshal(out)
	if err != nil || !bytes.Equal(again, b) {
		t.Fatalf("re-encoding gave %x (%v), want %x", again, err, b)
	}
	if out.s != in.s || out.i != in.i || out.word != in.word || !bytes.Equal(out.fixed, in.fixed) || len(out.blobs) != 2 {
		t.Errorf("decoded %+v, want %+v", out, in)
	}
	// A decoded byte string aliases the input without reaching past its
	// own end.
	if cap(out.raw) != len(out.raw) {
		t.Errorf("decoded byte string has capacity %d beyond its %d bytes", cap(out.raw), len(out.raw))
	}
}

func TestEncoderRejectsWrongWidth(t *testing.T) {
	if _, err := Marshal(fields{fixed: []byte{1, 2, 3}}); err == nil || !strings.Contains(err.Error(), "3-byte field, want 4") {
		t.Errorf("err = %v, want the width named", err)
	}
}

func TestDecoderRejects(t *testing.T) {
	valid, err := Marshal(fields{fixed: make([]byte, 4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		input      []byte
	}{
		{"empty", "varint", nil},
		{"padded varint", "varint", append([]byte{0x80, 0x00}, valid[1:]...)},
		{"boolean 2", "boolean byte 2", append([]byte{0, 0, 2}, valid[3:]...)},
		{"string past the end", "in 0 bytes", []byte{0, 0, 0, 5}},
		{"short fixed field", "4-byte field", []byte{0, 0, 0, 0, 0, 1, 2}},
		{"count past the end", "elements", append(append([]byte(nil), valid[:9]...), 0x7f)},
		{"trailing bytes", "1 trailing bytes", append(append([]byte(nil), valid...), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f fields
			err := Unmarshal(tc.input, &f)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
