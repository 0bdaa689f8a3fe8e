// Package commutative implements the commutative encryption function of
// the paper's Section 4 protocol (after Agrawal, Evfimievski, Srikant).
// Listing 3 needs three things from it: a random-oracle hash into a group
// where Decisional Diffie–Hellman is hard, a keyed permutation of that
// group that commutes, and equality of doubly-encrypted elements.
//
// The protocols run on P-256 (p256.go): an element is the 32-byte
// x-coordinate of a curve point, HashToElement is the ideal hash, and
// CurveKey.Apply maps x(P) to x(k·P) through crypto/ecdh.
//
//   - Well-defined on x-coordinates: k·(x, −y) = −(k·(x, y)), and a point
//     and its negative share one x, so the sign dropped at every layer
//     never matters.
//   - Commutativity: x(k1·k2·P) = x(k2·k1·P).
//   - Bijectivity: the group has prime order n and 1 ≤ k < n, so P ↦ k·P
//     permutes the non-identity points and, by the first item, their
//     x-coordinates. Cofactor 1: every curve point is in the group, so the
//     on-curve test Apply performs is the whole membership test.
//   - Secrecy: under DDH in P-256, ⟨P, k·P, Q, k·Q⟩ is indistinguishable
//     from ⟨P, k·P, Q, R⟩ for random P, Q, R — the property Agrawal et al.
//     prove their protocol from. The standard library's P-256 is
//     constant-time and its scalars are full-width.
//
// Key (this file) is the paper's own example instance, kept for the
// per-layer probes of `go run ./bench` only: Pohlig–Hellman exponentiation
// f_e(x) = x^e mod p over QR(p), the quadratic-residue subgroup of a safe
// prime p = 2q+1, with short exponents at production group sizes
// (Koshiba–Kurosawa assumption) on a variable-time math/big.Exp engine.
// No protocol calls it.
package commutative

import (
	"fmt"
	"io"
	"math/big"

	"github.com/secmediation/secmediation/internal/crypto/groups"
	"github.com/secmediation/secmediation/internal/crypto/modexp"
)

// Key is a commutative encryption key in a fixed safe-prime group: one
// exponentiation engine for the secret exponent e and one for its inverse
// d (each engine holds the only copy of its exponent).
// seclint:private commutative-encryption exponent
type Key struct {
	group *groups.Group
	enc   *modexp.Engine // seclint:secret x ↦ x^e mod p, 1 ≤ e < q
	dec   *modexp.Engine // seclint:secret y ↦ y^d mod p, e·d ≡ 1 (mod q)
}

// GenerateKey draws a fresh secret exponent in the given group. At
// production group sizes (≥ 1024 bits) the exponent is short — see
// groups.ShortExponentBits — which shrinks the encryption ladder ~8× at
// the 2048-bit group; smaller test groups draw full-length exponents. The
// decryption exponent d = e⁻¹ mod q is full-length either way (the
// inverse of a short exponent is not short).
func GenerateKey(g *groups.Group, rnd io.Reader) (*Key, error) {
	e, err := g.RandomShortExponent(rnd)
	if err != nil {
		return nil, err
	}
	return keyFromExponent(g, e)
}

// keyFromExponent completes a key: inverse exponent and the two engines.
func keyFromExponent(g *groups.Group, e *big.Int) (*Key, error) {
	d := new(big.Int).ModInverse(e, g.Q)
	if d == nil {
		// unreachable for prime q and 1 ≤ e < q, but fail loudly
		return nil, fmt.Errorf("commutative: exponent not invertible")
	}
	mod, err := modexp.NewModulus(g.P)
	if err != nil {
		return nil, fmt.Errorf("commutative: %w", err)
	}
	enc, err := modexp.NewEngine(mod, e)
	if err != nil {
		return nil, fmt.Errorf("commutative: %w", err)
	}
	dec, err := modexp.NewEngine(mod, d)
	if err != nil {
		return nil, fmt.Errorf("commutative: %w", err)
	}
	return &Key{group: g, enc: enc, dec: dec}, nil
}

// newKeyForTest builds a key from a fixed exponent; used by tests only.
func newKeyForTest(g *groups.Group, e *big.Int) (*Key, error) {
	em := new(big.Int).Mod(e, g.Q)
	if em.Sign() == 0 {
		return nil, fmt.Errorf("commutative: zero exponent")
	}
	return keyFromExponent(g, em)
}

// Encrypt computes f_e(x) = x^e mod p. x must be in QR(p): the function
// returns an error otherwise, because applying it outside the subgroup
// breaks both bijectivity and the security argument. The membership test
// is a Jacobi-symbol evaluation.
// seclint:sanitizer commutative encrypt boundary
func (k *Key) Encrypt(x *big.Int) (*big.Int, error) {
	opQRTest.Add(1)
	if !k.group.IsQuadraticResidue(x) {
		return nil, fmt.Errorf("commutative: input not in QR(p)")
	}
	opExp.Add(1)
	return k.enc.Exp(x), nil
}

// ReEncrypt applies f_e to an already-encrypted element (the second
// layer). It range-checks the ciphertext and skips the quadratic-residue
// test: f_e permutes the subgroup, so a first-layer ciphertext is in
// QR(p) by construction.
// seclint:sanitizer commutative re-encrypt boundary
func (k *Key) ReEncrypt(c *big.Int) (*big.Int, error) {
	if c == nil || c.Sign() <= 0 || c.Cmp(k.group.P) >= 0 {
		return nil, fmt.Errorf("commutative: ciphertext out of range")
	}
	opExp.Add(1)
	return k.enc.Exp(c), nil
}

// Decrypt computes f_e⁻¹(y) = y^d mod p. The ciphertext is
// membership-tested (Jacobi symbol) before the inversion exponentiation.
// seclint:source commutative decryption output
func (k *Key) Decrypt(y *big.Int) (*big.Int, error) {
	opQRTest.Add(1)
	if !k.group.IsQuadraticResidue(y) {
		return nil, fmt.Errorf("commutative: ciphertext not in QR(p)")
	}
	opExp.Add(1)
	return k.dec.Exp(y), nil
}
