// Package ecelgamal is the additively homomorphic "elliptic curve variant
// of ElGamal" the paper cites beside Paillier: exponential ElGamal over
// P-256, E(m) = (A, B) = (ρ·G, m·G + ρ·X) under the public point X = x·G.
// Decryption stops at the point M = B − x·A = m·G; no discrete log is
// solved (internal/pm keys an AEAD with M instead). Every peer point goes
// through DecodeCiphertext or ParsePublicKey, which validate it with
// elliptic.UnmarshalCompressed: crypto/elliptic panics on off-curve input.
package ecelgamal

import (
	"crypto/ecdh"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"github.com/secmediation/secmediation/internal/crypto/hybrid"
)

// PointSize is the width of a SEC 1 compressed P-256 point.
const PointSize = 33

// CiphertextSize is the wire width of a ciphertext: A ‖ B, both compressed.
const CiphertextSize = 2 * PointSize

var curve = elliptic.P256()

// Order returns the group order q, the modulus of plaintexts and scalars.
func Order() *big.Int { return new(big.Int).Set(curve.Params().N) }

// RandomScalar draws a uniform scalar in [1, q−1].
func RandomScalar(rnd io.Reader) (*big.Int, error) {
	k, err := rand.Int(rnd, new(big.Int).Sub(curve.Params().N, big.NewInt(1)))
	if err != nil {
		return nil, fmt.Errorf("ecelgamal: random scalar: %w", err)
	}
	return k.Add(k, big.NewInt(1)), nil
}

// point is an affine point; crypto/elliptic writes the identity as (0, 0).
// Honest arithmetic reaches it with negligible probability, and its
// compressed form 0x02‖0³² would decode to another point: the match it
// belongs to then fails to open.
type point struct{ x, y *big.Int }

func decodePoint(b []byte) (point, error) {
	if len(b) != PointSize {
		return point{}, fmt.Errorf("ecelgamal: point is %d bytes, want %d", len(b), PointSize)
	}
	x, y := elliptic.UnmarshalCompressed(curve, b)
	if x == nil {
		return point{}, errors.New("ecelgamal: not a compressed P-256 point")
	}
	return point{x, y}, nil
}

func (p point) compressed() []byte { return elliptic.MarshalCompressed(curve, p.x, p.y) }

func add(p, q point) (r point) {
	opAdd.Add(1)
	r.x, r.y = curve.Add(p.x, p.y, q.x, q.y)
	return
}

func mul(p point, k *big.Int) (r point) {
	opMul.Add(1)
	r.x, r.y = curve.ScalarMult(p.x, p.y, k.Bytes())
	return
}

func baseMul(k *big.Int) (r point) {
	opBaseMul.Add(1)
	r.x, r.y = curve.ScalarBaseMult(k.Bytes())
	return
}

// PublicKey is the point X = x·G.
type PublicKey struct{ x point }

// ParsePublicKey validates a compressed public point received from a peer.
func ParsePublicKey(b []byte) (*PublicKey, error) {
	p, err := decodePoint(b)
	if err != nil {
		return nil, err
	}
	return &PublicKey{x: p}, nil
}

// PublicKeyFromECDH takes an ecdh.P256 public key, already validated by
// crypto/ecdh, as the EC-ElGamal key X: the query key of key transport
// and of PM is one point.
func PublicKeyFromECDH(pub *ecdh.PublicKey) *PublicKey {
	raw := pub.Bytes() // 0x04 ‖ x ‖ y
	return &PublicKey{x: point{new(big.Int).SetBytes(raw[1:PointSize]), new(big.Int).SetBytes(raw[PointSize:])}}
}

// PrivateKey holds the secret scalar x.
// seclint:private EC-ElGamal decryption scalar
type PrivateKey struct {
	d   *big.Int // seclint:secret the scalar x, 1 ≤ x < q
	pub []byte
}

// KeyFromECDH reuses an ecdh.P256 key's scalar (crypto/ecdh keeps it in
// [1, q−1]) as the decryption scalar, so one per-query key serves key
// transport and PM alike: the public point is the same X = x·G in both
// roles. The point is the ECDH key's own, compressed as key transport
// sends it, so no multiplication recomputes it.
func KeyFromECDH(k *ecdh.PrivateKey) *PrivateKey {
	return &PrivateKey{d: new(big.Int).SetBytes(k.Bytes()), pub: hybrid.CompressPoint(k.PublicKey())}
}

// PublicKey returns the compressed public point, the form it travels in.
func (k *PrivateKey) PublicKey() []byte { return k.pub }

// Ciphertext is E(m) = (A, B).
type Ciphertext struct{ a, b point }

// DecodeCiphertext parses CiphertextSize bytes, validating both points.
func DecodeCiphertext(c []byte) (*Ciphertext, error) {
	if len(c) != CiphertextSize {
		return nil, fmt.Errorf("ecelgamal: ciphertext is %d bytes, want %d", len(c), CiphertextSize)
	}
	a, err := decodePoint(c[:PointSize])
	if err != nil {
		return nil, err
	}
	b, err := decodePoint(c[PointSize:])
	if err != nil {
		return nil, err
	}
	return &Ciphertext{a: a, b: b}, nil
}

// Bytes encodes the ciphertext as A ‖ B.
func (c *Ciphertext) Bytes() []byte { return append(c.a.compressed(), c.b.compressed()...) }

// Encrypt computes E(m) under a fresh ρ, so two encryptions of one m are
// unlinkable.
// seclint:sanitizer EC-ElGamal encrypt boundary
func (pk *PublicKey) Encrypt(rnd io.Reader, m *big.Int) (*Ciphertext, error) {
	rho, err := RandomScalar(rnd)
	if err != nil {
		return nil, err
	}
	mm := new(big.Int).Mod(m, curve.Params().N)
	return &Ciphertext{a: baseMul(rho), b: add(baseMul(mm), mul(pk.x, rho))}, nil
}

// Add returns E(m₁ + m₂).
func Add(c1, c2 *Ciphertext) *Ciphertext {
	return &Ciphertext{a: add(c1.a, c2.a), b: add(c1.b, c2.b)}
}

// AddPlain returns E(m + k) for a public k: it adds k·G to B and keeps
// A, one fixed-base multiplication and one point addition.
func AddPlain(c *Ciphertext, k *big.Int) *Ciphertext {
	kk := new(big.Int).Mod(k, curve.Params().N)
	return &Ciphertext{a: c.a, b: add(c.b, baseMul(kk))}
}

// ScalarMul returns E(k·m).
func ScalarMul(c *Ciphertext, k *big.Int) *Ciphertext {
	return &Ciphertext{a: mul(c.a, k), b: mul(c.b, k)}
}

// Decrypt returns the compressed plaintext point M = B − x·A = m·G.
// seclint:source EC-ElGamal plaintext point
func (k *PrivateKey) Decrypt(c *Ciphertext) []byte {
	s := mul(c.a, k.d)
	if s.y.Sign() != 0 { // −(0, 0) is (0, 0); crypto/elliptic rejects (0, p)
		s.y.Sub(curve.Params().P, s.y)
	}
	return add(c.b, s).compressed()
}

// BaseMul returns the compressed point k·G.
func BaseMul(k *big.Int) []byte { return baseMul(k).compressed() }
