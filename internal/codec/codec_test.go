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
	// The sizing pass counts what the writing pass writes, and Marshal
	// allocates exactly that.
	if n, err := Size(in); err != nil || n != len(b) || cap(b) != len(b) {
		t.Errorf("Size = %d (%v); encoding of %d bytes, capacity %d", n, err, len(b), cap(b))
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

// uintField is a message of one uvarint and one zigzag varint.
type uintField struct {
	u uint64
	i int64
}

func (f uintField) EncodeTo(e *Encoder) {
	e.Uint(f.u)
	e.Int(f.i)
}

// The sizing pass counts every varint width the writing pass produces.
func TestSizeMatchesVarintWidths(t *testing.T) {
	for _, f := range []uintField{{0, 0}, {127, -64}, {128, 64}, {1<<14 - 1, -1 << 13}, {1 << 14, 1 << 13},
		{1<<63 - 1, -1 << 62}, {1 << 63, 1 << 62}, {^uint64(0), -1 << 63}, {^uint64(0), 1<<63 - 1}} {
		var e Encoder
		f.EncodeTo(&e)
		if n, err := Size(f); err != nil || n != len(e.buf) {
			t.Errorf("%+v: Size = %d (%v), written %d", f, n, err, len(e.buf))
		}
	}
}

// Append fails when a value writes other than the size it was given.
func TestAppendRejectsWrongSize(t *testing.T) {
	if _, err := Append(nil, uintField{u: 1}, 3); err == nil || !strings.Contains(err.Error(), "sized 3") {
		t.Errorf("err = %v, want the size mismatch named", err)
	}
}
