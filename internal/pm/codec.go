package pm

import (
	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
)

// EncodeTo writes the encrypted buckets: a count, then per bucket its
// coefficient count and 66-byte ciphertexts.
func (eb ECBuckets) EncodeTo(e *codec.Encoder) {
	e.Len(len(eb.Polys))
	for _, p := range eb.Polys {
		e.Len(len(p))
		for _, c := range p {
			e.Fixed(c, ecelgamal.CiphertextSize)
		}
	}
}

// DecodeFrom reads buckets written by EncodeTo.
func (eb *ECBuckets) DecodeFrom(d *codec.Decoder) {
	eb.Polys = nil
	if n := d.Count(1); n > 0 {
		eb.Polys = make([][][]byte, n)
	}
	for i := range eb.Polys {
		if n := d.Count(ecelgamal.CiphertextSize); n > 0 {
			eb.Polys[i] = make([][]byte, n)
		}
		for j := range eb.Polys[i] {
			eb.Polys[i][j] = d.Fixed(ecelgamal.CiphertextSize)
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
