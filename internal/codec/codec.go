// Package codec is the one binary layout of every protocol message.
//
// Counts, lengths and unsigned fields are uvarints; signed integer
// fields are zigzag varints, so a hostile negative value reaches the
// receiver's own bounds check intact; cryptographic fields of a known
// width (group elements, ciphertexts, key shares, index values) are
// written bare; byte strings are length-prefixed. There are no field
// names, tags or type descriptors: a message is its fields in a fixed
// order.
//
// Decoding follows relation.DecodeTupleSet's discipline, so every
// encoding is canonical and no allocation is sized by an unchecked
// count: varints must be minimal, every count is checked against the
// bytes left before the caller allocates from it, every fixed width and
// boolean byte is checked, and trailing bytes are rejected. Errors are
// sticky: after the first one every read returns a zero value and
// Finish reports it.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Encodable is a value with a codec layout.
type Encodable interface {
	EncodeTo(e *Encoder)
}

// Decodable is a value that decodes its codec layout in place.
type Decodable interface {
	DecodeFrom(d *Decoder)
}

// Size returns the length of v's encoding: a pass of EncodeTo that
// counts bytes and writes none.
func Size(v Encodable) (int, error) {
	e := Encoder{sizing: true}
	v.EncodeTo(&e)
	return e.size, e.err
}

// Append appends v's encoding, whose Size is n, to dst. When dst lacks
// room for it, dst grows once, to exactly len(dst)+n bytes, so a caller
// that sized dst itself gets its own array back. It fails when v writes
// other than n bytes.
func Append(dst []byte, v Encodable, n int) ([]byte, error) {
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	e := Encoder{buf: dst}
	v.EncodeTo(&e)
	if e.err == nil && len(e.buf) != len(dst)+n {
		e.err = fmt.Errorf("codec: %T wrote %d bytes, sized %d", v, len(e.buf)-len(dst), n)
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// Marshal returns v's encoding, in a buffer of exactly its length: the
// body of a MarshalBinary.
func Marshal(v Encodable) ([]byte, error) {
	n, err := Size(v)
	if err != nil {
		return nil, err
	}
	return Append(nil, v, n)
}

// Unmarshal decodes all of b into v: the body of an UnmarshalBinary.
// Byte strings and fixed-width fields of v alias b.
func Unmarshal(b []byte, v Decodable) error {
	d := Decoder{b: b}
	v.DecodeFrom(&d)
	return d.Finish()
}

// Encoder appends fields to a buffer. A sizing encoder (see Size) only
// counts them; its buffer is scratch space for the callbacks of
// Encoder.Append.
type Encoder struct {
	buf    []byte
	size   int
	sizing bool
	err    error
}

// Fail records err as the encoding's error, unless one is already set.
func (e *Encoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Uint writes n as a uvarint.
func (e *Encoder) Uint(n uint64) {
	if e.sizing {
		e.size += (bits.Len64(n|1) + 6) / 7
		return
	}
	e.buf = binary.AppendUvarint(e.buf, n)
}

// Int writes n as a zigzag varint.
func (e *Encoder) Int(n int64) {
	u := uint64(n) << 1
	if n < 0 {
		u = ^u
	}
	e.Uint(u)
}

// Len writes a count or a length.
func (e *Encoder) Len(n int) { e.Uint(uint64(n)) }

// Byte writes one byte.
func (e *Encoder) Byte(b byte) {
	if e.sizing {
		e.size++
		return
	}
	e.buf = append(e.buf, b)
}

// Bool writes 1 or 0.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Bytes writes b with its length.
func (e *Encoder) Bytes(b []byte) {
	e.Len(len(b))
	e.raw(b)
}

// Text writes s with its length.
func (e *Encoder) Text(s string) {
	e.Len(len(s))
	if e.sizing {
		e.size += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

// Strings writes a count, then each string.
func (e *Encoder) Strings(ss []string) {
	e.Len(len(ss))
	for _, s := range ss {
		e.Text(s)
	}
}

// ByteStrings writes a count, then each byte string with its length.
func (e *Encoder) ByteStrings(bs [][]byte) {
	e.Len(len(bs))
	for _, b := range bs {
		e.Bytes(b)
	}
}

// Fixed writes b bare; it must be exactly n bytes.
func (e *Encoder) Fixed(b []byte, n int) {
	if len(b) != n {
		e.Fail(fmt.Errorf("codec: %d-byte field, want %d", len(b), n))
		return
	}
	e.raw(b)
}

// raw writes b bare.
func (e *Encoder) raw(b []byte) {
	if e.sizing {
		e.size += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}

// Uint64 writes n as 8 big-endian bytes.
func (e *Encoder) Uint64(n uint64) {
	if e.sizing {
		e.size += 8
		return
	}
	e.buf = binary.BigEndian.AppendUint64(e.buf, n)
}

// Append writes whatever f appends: a layout owned by another package,
// such as relation.Value's canonical encoding. A sizing encoder runs f
// on its scratch buffer and counts what it wrote.
func (e *Encoder) Append(f func(dst []byte) []byte) {
	if e.sizing {
		e.buf = f(e.buf[:0])
		e.size += len(e.buf)
		return
	}
	e.buf = f(e.buf)
}

// Decoder reads fields from the front of a buffer.
type Decoder struct {
	b   []byte
	err error
}

// Err reports the first decoding error.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoding's error, unless one is already set.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish reports the first decoding error, or an error when bytes are
// left over.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("codec: %d trailing bytes", len(d.b))
	}
	return d.err
}

var errVarint = errors.New("codec: truncated or non-minimal varint")

// Uint reads a minimal uvarint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	n, k := binary.Uvarint(d.b)
	// A multi-byte varint whose last byte is zero is padded: the value
	// would have one more encoding.
	if k <= 0 || (k > 1 && d.b[k-1] == 0) {
		d.Fail(errVarint)
		return 0
	}
	d.b = d.b[k:]
	return n
}

// Int64 reads a minimal zigzag varint.
func (d *Decoder) Int64() int64 {
	u := d.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a minimal zigzag varint that fits an int.
func (d *Decoder) Int() int {
	n := d.Int64()
	if n < math.MinInt || n > math.MaxInt {
		d.Fail(fmt.Errorf("codec: integer %d overflows int", n))
		return 0
	}
	return int(n)
}

// Count reads a count of elements that each take at least min ≥ 1
// bytes, and checks that they fit in what is left, so the caller may
// allocate count elements.
func (d *Decoder) Count(min int) int {
	n := d.Uint()
	if d.err == nil && n > uint64(len(d.b)/min) {
		d.Fail(fmt.Errorf("codec: %d elements of ≥ %d bytes in %d bytes", n, min, len(d.b)))
		return 0
	}
	return int(n)
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	b := d.Fixed(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a 0 or 1 byte.
func (d *Decoder) Bool() bool {
	switch b := d.Byte(); b {
	case 0, 1:
		return b == 1
	default:
		d.Fail(fmt.Errorf("codec: boolean byte %d", b))
		return false
	}
}

// Bytes reads a length-prefixed byte string; it aliases the input and is
// nil when empty.
func (d *Decoder) Bytes() []byte {
	return d.Fixed(d.Count(1))
}

// Text reads a length-prefixed string. (It is not String, so that a
// Decoder is no fmt.Stringer: printing one must not consume it.)
func (d *Decoder) Text() string { return string(d.Bytes()) }

// Strings reads a count, then each string; nil when empty.
func (d *Decoder) Strings() []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Text()
	}
	return out
}

// ByteStrings reads a count, then each byte string; nil when empty.
func (d *Decoder) ByteStrings() [][]byte {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = d.Bytes()
	}
	return out
}

// Fixed reads n bare bytes; they alias the input (capacity n, so an
// append cannot reach the bytes after them), and are nil when n is 0.
func (d *Decoder) Fixed(n int) []byte {
	if d.err != nil || n == 0 {
		return nil
	}
	if n > len(d.b) {
		d.Fail(fmt.Errorf("codec: %d-byte field in %d bytes", n, len(d.b)))
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// Uint64 reads 8 big-endian bytes.
func (d *Decoder) Uint64() uint64 {
	b := d.Fixed(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Next decodes a layout owned by another package: f decodes from the
// front of what is left and reports how many bytes it consumed.
func (d *Decoder) Next(f func(src []byte) (int, error)) {
	if d.err != nil {
		return
	}
	n, err := f(d.b)
	if err != nil {
		d.Fail(err)
		return
	}
	d.b = d.b[n:]
}
