// Package commutative implements the commutative encryption function used
// by the paper's Section 4 protocol (after Agrawal, Evfimievski, Srikant):
// Pohlig–Hellman exponentiation f_e(x) = x^e mod p over QR(p), the
// quadratic-residue subgroup of a safe prime p = 2q+1.
//
// The four defining properties hold by construction:
//
//   - Commutativity: f_e1(f_e2(x)) = x^(e1·e2) = f_e2(f_e1(x)).
//   - Bijectivity: gcd(e, q) = 1 because q is prime and 1 ≤ e < q, so
//     exponentiation permutes the order-q subgroup QR(p).
//   - Invertibility: d = e⁻¹ mod q gives f_d(f_e(x)) = x^(e·d mod q) = x.
//   - Secrecy: under the Decisional Diffie–Hellman assumption in QR(p),
//     ⟨x, x^e, y, y^e⟩ is indistinguishable from ⟨x, x^e, y, z⟩ for random
//     x, y, z — the indistinguishability property Agrawal et al. prove.
//     With short exponents (GenerateKey at production group sizes) this
//     additionally relies on the short-exponent indistinguishability
//     assumption (Koshiba–Kurosawa, PKC 2004); see docs/SECURITY.md.
//
// Each key exponentiation — Encrypt, ReEncrypt, Decrypt: the hot path of
// the whole commutative protocol — runs through a modexp.Engine built at
// key generation: math/big.Exp for the default and full-exponent keys,
// the constant-time Montgomery ladder for GenerateKeyConstantTime.
//
// Inputs must be elements of QR(p); the protocols guarantee this by hashing
// attribute values into QR(p) with the ideal-hash oracle
// (internal/crypto/oracle).
package commutative

import (
	"fmt"
	"io"
	"math/big"

	"github.com/secmediation/secmediation/internal/crypto/groups"
	"github.com/secmediation/secmediation/internal/crypto/modexp"
	"github.com/secmediation/secmediation/internal/parallel"
)

// Key is a commutative encryption key in a fixed safe-prime group: one
// exponentiation engine for the secret exponent e and one for its inverse
// d (each engine holds the only copy of its exponent). Both datasources
// must use the same group (the paper's common domain dom_f); they
// generate independent exponents.
// seclint:private commutative-encryption exponent
type Key struct {
	group *groups.Group
	enc   *modexp.Engine // seclint:secret x ↦ x^e mod p, 1 ≤ e < q
	dec   *modexp.Engine // seclint:secret y ↦ y^d mod p, e·d ≡ 1 (mod q)
}

// GenerateKey draws a fresh secret exponent in the given group. At
// production group sizes (≥ 1024 bits) the exponent is short — see
// groups.ShortExponentBits — which shrinks the encryption ladder ~8× at
// the default 2048-bit group; smaller test groups draw full-length
// exponents. The decryption exponent d = e⁻¹ mod q is full-length either
// way (the inverse of a short exponent is not short); Decrypt sits off
// the protocols' hot path, which cross-encrypts far more than it decrypts.
func GenerateKey(g *groups.Group, rnd io.Reader) (*Key, error) {
	e, err := g.RandomShortExponent(rnd)
	if err != nil {
		return nil, err
	}
	return keyFromExponent(g, e, false)
}

// GenerateKeyFullExponent draws a full-length exponent uniform in
// [1, q-1] — the scheme exactly as Agrawal et al. state it, with no
// short-exponent assumption. Use it to drop the Koshiba–Kurosawa
// assumption at ~8× the per-element encryption cost; `go run ./bench`
// reports both as modexp.exp_short_ns and modexp.exp_full_ns.
func GenerateKeyFullExponent(g *groups.Group, rnd io.Reader) (*Key, error) {
	e, err := g.RandomExponent(rnd)
	if err != nil {
		return nil, err
	}
	return keyFromExponent(g, e, false)
}

// GenerateKeyConstantTime draws a short exponent like GenerateKey but
// runs every exponentiation through the fixed-window constant-time
// ladder (modexp.ExpConstantTime): the execution trajectory depends only
// on the group and the public exponent-length bound, never on the
// exponent's bits, closing the timing side channel the cttaint analyzer
// flags on the math/big.Exp engines. The encrypt ladder is padded to the
// group's short-exponent bound and the decrypt ladder to |q|, so the pad
// reveals only what the drawing procedure already fixes. Costs the
// skipped work and assembly kernel math/big.Exp enjoys; `go run ./bench`
// reports the overhead as modexp.exp_ct_ns against modexp.exp_short_ns.
func GenerateKeyConstantTime(g *groups.Group, rnd io.Reader) (*Key, error) {
	e, err := g.RandomShortExponent(rnd)
	if err != nil {
		return nil, err
	}
	return keyFromExponent(g, e, true)
}

// keyFromExponent completes a key: inverse exponent, the key's Montgomery
// context, and the two engines — constant-time ladders or math/big.Exp.
func keyFromExponent(g *groups.Group, e *big.Int, constantTime bool) (*Key, error) {
	d := new(big.Int).ModInverse(e, g.Q)
	if d == nil {
		// unreachable for prime q and 1 ≤ e < q, but fail loudly
		return nil, fmt.Errorf("commutative: exponent not invertible")
	}
	mod, err := modexp.NewModulus(g.P)
	if err != nil {
		return nil, fmt.Errorf("commutative: %w", err)
	}
	// The public pad bounds of the constant-time ladders: encryption
	// exponents are drawn to the group's short-exponent length (or |q|
	// below the threshold); decryption exponents are full-length in
	// [1, q-1] either way.
	encBits := g.ShortExponentBits()
	if encBits == 0 || encBits >= g.Q.BitLen() {
		encBits = g.Q.BitLen()
	}
	newEngine := func(x *big.Int, padBits int) (*modexp.Engine, error) {
		if constantTime {
			return modexp.NewEngineConstantTime(mod, x, padBits)
		}
		return modexp.NewEngine(mod, x)
	}
	enc, err := newEngine(e, encBits)
	if err != nil {
		return nil, fmt.Errorf("commutative: %w", err)
	}
	dec, err := newEngine(d, g.Q.BitLen())
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
	return keyFromExponent(g, em, false)
}

// Group returns the key's group.
func (k *Key) Group() *groups.Group { return k.group }

// Encrypt computes f_e(x) = x^e mod p. x must be in QR(p): the function
// returns an error otherwise, because applying it outside the subgroup
// breaks both bijectivity and the security argument. The membership test
// is a Jacobi-symbol evaluation — cheap next to the exponentiation, but
// not free; callers whose inputs are group elements by construction can
// still use EncryptUnchecked.
// seclint:sanitizer commutative encrypt boundary
func (k *Key) Encrypt(x *big.Int) (*big.Int, error) {
	opQRTest.Add(1)
	if !k.group.IsQuadraticResidue(x) {
		return nil, fmt.Errorf("commutative: input not in QR(p)")
	}
	return k.EncryptUnchecked(x), nil
}

// EncryptUnchecked computes f_e(x) = x^e mod p without the
// quadratic-residue membership test.
//
// When to use which path:
//
//   - Untrusted first-layer inputs (values that arrive from outside the
//     group machinery) MUST go through Encrypt: exponentiation outside
//     QR(p) is not a bijection on the subgroup and voids the DDH-based
//     indistinguishability argument.
//   - Oracle-hashed values are squared into QR(p) by construction
//     (oracle.HashBytes ends in Square), so the sources' own hash
//     encryptions may skip the test.
//   - Our own ciphertexts are elements of QR(p) because f_e maps the
//     subgroup onto itself, so re-encryption layers may skip it too.
//
// seclint:sanitizer commutative encrypt boundary
func (k *Key) EncryptUnchecked(x *big.Int) *big.Int {
	opExp.Add(1)
	return k.enc.Exp(x)
}

// EncryptBatch encrypts a slice of QR(p) elements across a worker pool
// (workers as in parallel.Resolve), preserving order. Inputs are
// membership-checked like Encrypt; for trusted-origin batches map
// EncryptUnchecked over the slice instead. All workers share the key's
// one engine — its schedule is read-only after key generation.
// seclint:sanitizer commutative encrypt boundary
func (k *Key) EncryptBatch(xs []*big.Int, workers int) ([]*big.Int, error) {
	return parallel.Map(len(xs), workers, func(i int) (*big.Int, error) {
		return k.Encrypt(xs[i])
	})
}

// ReEncrypt applies f_e to an already-encrypted element (the second layer
// in the protocol's cross-encryption step).
//
// It deliberately skips the quadratic-residue test that Encrypt performs
// and only range-checks the ciphertext: cross-encryption inputs are the
// opposite source's ciphertexts, which are QR(p) elements by construction
// (f_e permutes the subgroup), and the parties are semi-honest, so paying
// a membership test per element to re-verify buys nothing. First-layer
// encryptions of genuinely untrusted inputs must still use Encrypt — see
// EncryptUnchecked for the full argument.
// seclint:sanitizer commutative re-encrypt boundary
func (k *Key) ReEncrypt(c *big.Int) (*big.Int, error) {
	if c == nil || c.Sign() <= 0 || c.Cmp(k.group.P) >= 0 {
		return nil, fmt.Errorf("commutative: ciphertext out of range")
	}
	return k.EncryptUnchecked(c), nil
}

// ReEncryptBatch re-encrypts a slice of ciphertexts across a worker pool
// (workers as in parallel.Resolve), preserving order. Inputs are
// range-checked like ReEncrypt — and, like it, NOT membership-tested:
// the batch form exists for the protocol's cross-encryption step, whose
// inputs are the opposite source's ciphertexts and hence QR(p) elements
// by construction. All workers share the key's one engine. This is the
// hot loop of the commutative protocol: 2·(n+m) of the run's
// exponentiations flow through here.
// seclint:sanitizer commutative re-encrypt boundary
func (k *Key) ReEncryptBatch(cs []*big.Int, workers int) ([]*big.Int, error) {
	return parallel.Map(len(cs), workers, func(i int) (*big.Int, error) {
		return k.ReEncrypt(cs[i])
	})
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

// DecryptBatch decrypts a slice of ciphertexts across a worker pool
// (workers as in parallel.Resolve), preserving order. Inputs are
// membership-checked like Decrypt. All workers share the key's one
// decryption engine. Note d is full-length even for short-exponent keys
// (see GenerateKey), so batch decryption costs full-ladder
// exponentiations — it parallelizes, but does not shorten, the ladder.
// seclint:source commutative decryption output
func (k *Key) DecryptBatch(ys []*big.Int, workers int) ([]*big.Int, error) {
	return parallel.Map(len(ys), workers, func(i int) (*big.Int, error) {
		return k.Decrypt(ys[i])
	})
}
