package pm

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"

	"github.com/secmediation/secmediation/internal/crypto/paillier"
)

// This file is the Paillier form of Listing 4 that the protocol ran before
// it moved to EC-ElGamal: encrypted coefficients, the masked evaluation
// E(r·P(a) + m) and the (root ‖ tag ‖ payload) packing of m. No protocol
// calls it; it stays because the benchmark's pm.* probes are built on it.

// EncryptedPolynomial is the Paillier ciphertext-coefficient form.
type EncryptedPolynomial struct {
	Coeffs []*paillier.Ciphertext
}

// EvalEncrypted computes E(P(a)) from encrypted coefficients by Horner's
// rule: acc ← acc·a + c_k, using MulConst and Add on ciphertexts.
func (ep *EncryptedPolynomial) EvalEncrypted(pk *paillier.PublicKey, a *big.Int) (*paillier.Ciphertext, error) {
	if len(ep.Coeffs) == 0 {
		return nil, fmt.Errorf("pm: empty encrypted polynomial")
	}
	am := new(big.Int).Mod(a, pk.N)
	acc := ep.Coeffs[len(ep.Coeffs)-1]
	for k := len(ep.Coeffs) - 2; k >= 0; k-- {
		acc = pk.Add(pk.MulConst(acc, am), ep.Coeffs[k])
	}
	return acc, nil
}

// MaskedEval computes e = E(r·P(a) + m) for a fresh random r. When
// P(a) = 0 the ciphertext decrypts to m; otherwise to a value
// indistinguishable from random.
func (ep *EncryptedPolynomial) MaskedEval(pk *paillier.PublicKey, a, m *big.Int) (*paillier.Ciphertext, error) {
	pa, err := ep.EvalEncrypted(pk, a)
	if err != nil {
		return nil, err
	}
	r, err := pk.RandomPlaintext(rand.Reader)
	if err != nil {
		return nil, err
	}
	return pk.Rerandomize(rand.Reader, pk.AddPlain(pk.MulConst(pa, r), m))
}

// EncryptedBuckets is the Paillier form of the encrypted bucket
// polynomials.
type EncryptedBuckets struct {
	Polys []*EncryptedPolynomial
}

// Encrypt encrypts every bucket polynomial under a Paillier key whose
// modulus is the buckets' modulus.
func (b *Buckets) Encrypt(pk *paillier.PublicKey, workers int) (*EncryptedBuckets, error) {
	if pk.N.Cmp(b.N) != 0 {
		return nil, fmt.Errorf("pm: bucket modulus differs from key modulus")
	}
	stride := b.MaxDegree() + 1
	plain := make([]*big.Int, len(b.Polys)*stride)
	for i := range plain {
		plain[i] = b.Polys[i/stride].Coeffs[i%stride]
	}
	flat, err := pk.EncryptBatch(rand.Reader, plain, workers)
	if err != nil {
		return nil, err
	}
	out := &EncryptedBuckets{Polys: make([]*EncryptedPolynomial, len(b.Polys))}
	for i := range b.Polys {
		out.Polys[i] = &EncryptedPolynomial{Coeffs: flat[i*stride : (i+1)*stride]}
	}
	return out, nil
}

// MaskedEval evaluates against the bucket the root belongs to.
func (eb *EncryptedBuckets) MaskedEval(pk *paillier.PublicKey, a, m *big.Int) (*paillier.Ciphertext, error) {
	if len(eb.Polys) == 0 {
		return nil, fmt.Errorf("pm: empty encrypted buckets")
	}
	return eb.Polys[BucketIndex(a, len(eb.Polys))].MaskedEval(pk, a, m)
}

// tagBytes and lenBytes are the widths of the packed integrity tag and
// payload length.
const (
	tagBytes = 8
	lenBytes = 4
)

// Codec packs (root ‖ tag ‖ payload) into the Paillier plaintext space
// with a fixed byte width.
type Codec struct {
	// Width is the packed message width in bytes.
	Width int
}

// NewCodec derives the codec for a Paillier key: the width keeps every
// packed message strictly below n.
func NewCodec(pk *paillier.PublicKey) (*Codec, error) {
	w := (pk.N.BitLen() - 16) / 8
	if w < RootBytes+tagBytes+lenBytes+1 {
		return nil, fmt.Errorf("pm: modulus too small for message packing (%d bits)", pk.N.BitLen())
	}
	return &Codec{Width: w}, nil
}

// Pack builds the plaintext integer for (root ‖ tag ‖ payload).
func (c *Codec) Pack(r *big.Int, payload []byte) (*big.Int, error) {
	if max := c.Width - RootBytes - tagBytes - lenBytes; len(payload) > max {
		return nil, fmt.Errorf("pm: payload of %d bytes exceeds maximum %d", len(payload), max)
	}
	if r.Sign() < 0 || r.BitLen() > 8*RootBytes {
		return nil, fmt.Errorf("pm: root out of range")
	}
	buf := make([]byte, c.Width)
	r.FillBytes(buf[:RootBytes])
	tag := sha256.Sum256(append([]byte("secmediation/pm-tag\x00"), buf[:RootBytes]...))
	copy(buf[RootBytes:], tag[:tagBytes])
	binary.BigEndian.PutUint32(buf[RootBytes+tagBytes:], uint32(len(payload)))
	copy(buf[RootBytes+tagBytes+lenBytes:], payload)
	return new(big.Int).SetBytes(buf), nil
}
