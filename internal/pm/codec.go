package pm

import (
	"errors"
	"fmt"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
)

// EncodeTo writes the encrypted buckets: the bucket count B, the degree
// L every bucket shares, then the B·L 66-byte ciphertexts bucket by
// bucket. Buckets of different degrees have no encoding.
func (eb ECBuckets) EncodeTo(e *codec.Encoder) {
	e.Len(len(eb.Polys))
	degree := 0
	if len(eb.Polys) > 0 {
		degree = len(eb.Polys[0])
	}
	e.Len(degree)
	for i, p := range eb.Polys {
		if len(p) != degree {
			e.Fail(fmt.Errorf("pm: bucket %d has degree %d, bucket 0 has %d", i, len(p), degree))
			return
		}
		for _, c := range p {
			e.Fixed(c, ecelgamal.CiphertextSize)
		}
	}
}

// DecodeFrom reads buckets written by EncodeTo. It checks the shape
// before it reads any ciphertext: B must be a power of two no greater
// than MaxBuckets, as BucketCount makes it, and L at least 1.
func (eb *ECBuckets) DecodeFrom(d *codec.Decoder) {
	eb.Polys = nil
	b := d.Uint()
	if d.Err() == nil && (b == 0 || b&(b-1) != 0 || b > MaxBuckets) {
		d.Fail(fmt.Errorf("pm: bucket count %d is not a power of two in [1, %d]", b, MaxBuckets))
	}
	degree := d.Count(int(b) * ecelgamal.CiphertextSize)
	if d.Err() != nil {
		return
	}
	if degree == 0 {
		d.Fail(errors.New("pm: buckets of degree 0"))
		return
	}
	flat := d.Fixed(int(b) * degree * ecelgamal.CiphertextSize)
	eb.Polys = make([][][]byte, b)
	for i := range eb.Polys {
		eb.Polys[i] = make([][]byte, degree)
		for k := range eb.Polys[i] {
			off := (i*degree + k) * ecelgamal.CiphertextSize
			eb.Polys[i][k] = flat[off : off+ecelgamal.CiphertextSize : off+ecelgamal.CiphertextSize]
		}
	}
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (eb ECBuckets) MarshalBinary() ([]byte, error) { return codec.Marshal(eb) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (eb *ECBuckets) UnmarshalBinary(b []byte) error { return codec.Unmarshal(b, eb) }

// EncodeTo writes the 66-byte ciphertext and the sealed blob.
func (ev Eval) EncodeTo(e *codec.Encoder) {
	e.Fixed(ev.Cipher, ecelgamal.CiphertextSize)
	e.Bytes(ev.Sealed)
}

// DecodeFrom reads an Eval written by EncodeTo.
func (ev *Eval) DecodeFrom(d *codec.Decoder) {
	ev.Cipher = d.Fixed(ecelgamal.CiphertextSize)
	ev.Sealed = d.Bytes()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (ev Eval) MarshalBinary() ([]byte, error) { return codec.Marshal(ev) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (ev *Eval) UnmarshalBinary(b []byte) error { return codec.Unmarshal(b, ev) }
