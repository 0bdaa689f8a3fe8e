// Package paillier implements the Paillier public-key cryptosystem
// (Paillier, EUROCRYPT'99), the additively homomorphic scheme the paper
// names for its private-matching protocol (Section 5). No protocol calls
// it: PM runs on exponential EC-ElGamal (internal/crypto/ecelgamal), and
// an aggregate's source seals its one result row. It is kept for the
// per-layer paillier.* and pm.* probes of `go run ./bench` only. It
// provides:
//
//   - E(a)·E(b) mod n²  decrypts to  a+b mod n      (homomorphic addition)
//   - E(a)^γ   mod n²  decrypts to  γ·a mod n      (scalar multiplication)
//
// which is exactly what oblivious polynomial evaluation
// E(r·P(a') + (a'‖payload)) needs.
//
// Construction (with the standard g = n+1 simplification):
//
//	KeyGen: n = p·q for equal-size primes, λ = lcm(p-1, q-1), μ = λ⁻¹ mod n
//	Enc(m): c = (1 + m·n) · rⁿ mod n²  for random r ∈ Z_n^*
//	Dec(c): m = L(c^λ mod n²) · μ mod n,  L(u) = (u-1)/n
package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"github.com/secmediation/secmediation/internal/parallel"
)

var one = big.NewInt(1)

// PublicKey is a Paillier public key.
//
// A key lazily builds a fixed-base precomputation table for its
// randomizer (see Precompute); the table lives in unexported fields, so
// transported keys (gob) arrive without it and rebuild it on their side
// of the wire once they encrypt enough values to amortize the cost.
type PublicKey struct {
	// N is the modulus.
	N *big.Int
	// NSquared caches N².
	NSquared *big.Int

	// fb is the lazily built fixed-base randomizer table; encs counts
	// encryptions so the table is only built once a key is demonstrably
	// hot (building costs a few plain exponentiations).
	fb   atomic.Pointer[fixedBase]
	encs atomic.Int64
}

// Fixed-base precomputation parameters.
const (
	// fbWindow is the window width in bits: the table stores
	// base^(j·2^(fbWindow·i)) for every window position i and digit j,
	// turning an ℓ-bit exponentiation into ~ℓ/fbWindow multiplications
	// (no squarings).
	fbWindow = 4
	// fbWarmup is the number of Encrypt calls after which a key builds
	// its table automatically; building costs roughly four plain
	// exponentiations, so the break-even point is a handful of
	// encryptions.
	fbWarmup = 8
)

// fixedBase is a windowed fixed-base exponentiation table modulo n²:
// table[i][j-1] = base^(j · 2^(fbWindow·i)) for j ∈ [1, 2^fbWindow).
type fixedBase struct {
	table [][]*big.Int
	mod   *big.Int
}

func newFixedBase(base, mod *big.Int, bits int) *fixedBase {
	blocks := (bits + fbWindow - 1) / fbWindow
	fb := &fixedBase{table: make([][]*big.Int, blocks), mod: mod}
	b := new(big.Int).Set(base)
	for i := 0; i < blocks; i++ {
		row := make([]*big.Int, (1<<fbWindow)-1)
		row[0] = new(big.Int).Set(b)
		for j := 2; j < 1<<fbWindow; j++ {
			row[j-1] = new(big.Int).Mul(row[j-2], b)
			row[j-1].Mod(row[j-1], mod)
		}
		fb.table[i] = row
		for s := 0; s < fbWindow; s++ {
			b.Mul(b, b)
			b.Mod(b, mod)
		}
	}
	return fb
}

// exp computes base^e mod n² from the table: one multiplication per
// non-zero exponent window, no squarings.
func (fb *fixedBase) exp(e *big.Int) *big.Int {
	acc := big.NewInt(1)
	bits := e.BitLen()
	for i := 0; i*fbWindow < bits && i < len(fb.table); i++ {
		var d uint
		for b := 0; b < fbWindow; b++ {
			if e.Bit(i*fbWindow+b) == 1 {
				d |= 1 << b
			}
		}
		if d != 0 {
			acc.Mul(acc, fb.table[i][d-1])
			acc.Mod(acc, fb.mod)
		}
	}
	return acc
}

// Precompute builds the key's fixed-base randomizer table immediately.
//
// Two bases appear in Enc(m) = g^m · r^n mod n². With the standard
// g = n+1 choice, g^m = 1 + m·n needs no table at all — it is a single
// multiplication, which Encrypt already exploits. The expensive term is
// the randomizer r^n: its exponent n is fixed but its base is fresh per
// encryption, so fixed-base precomputation cannot apply directly.
// Instead the key fixes β = x^n mod n² once (for a random unit x) and
// draws randomizers as β^a for fresh random a ∈ [1, n): β is fixed, so
// the windowed table turns every randomizer into ~|n|/4 multiplications
// instead of a full |n|-bit exponentiation (~4–5× less work).
//
// The randomizers then range over the cyclic subgroup ⟨β⟩ of the n-th
// powers rather than the full group of n-th residues; for a random x the
// subgroup is overwhelmingly likely to be large and the resulting
// distribution is the standard randomizer-precomputation trade-off
// (semantic security still rests on the DCR assumption). Keys that never
// call Precompute and stay below the automatic warmup threshold keep the
// textbook uniform r^n path.
func (pk *PublicKey) Precompute(rnd io.Reader) error {
	if pk.fb.Load() != nil {
		return nil
	}
	x, err := pk.randomUnit(rnd)
	if err != nil {
		return err
	}
	beta := new(big.Int).Exp(x, pk.N, pk.NSquared)
	// a is drawn in [1, n), so n.BitLen() bits of table suffice.
	pk.fb.CompareAndSwap(nil, newFixedBase(beta, pk.NSquared, pk.N.BitLen()))
	return nil
}

// randomizer returns a fresh r^n mod n² factor: via the fixed-base table
// when present, via the textbook random-unit exponentiation otherwise.
// The warmup counter triggers an automatic Precompute on hot keys.
func (pk *PublicKey) randomizer(rnd io.Reader) (*big.Int, error) {
	if fb := pk.fb.Load(); fb != nil {
		a, err := rand.Int(rnd, new(big.Int).Sub(pk.N, one))
		if err != nil {
			return nil, fmt.Errorf("paillier: randomizer exponent: %w", err)
		}
		a.Add(a, one)
		return fb.exp(a), nil
	}
	if pk.encs.Add(1) == fbWarmup {
		if err := pk.Precompute(rnd); err != nil {
			return nil, err
		}
	}
	r, err := pk.randomUnit(rnd)
	if err != nil {
		return nil, err
	}
	return new(big.Int).Exp(r, pk.N, pk.NSquared), nil
}

// PrivateKey is a Paillier private key. Decryption uses the standard CRT
// optimization (work modulo p² and q² instead of n²), which is ~3–4×
// faster than the textbook λ/μ route; both paths are kept and
// cross-checked in tests.
// seclint:private Paillier decryption key
type PrivateKey struct {
	PublicKey
	lambda *big.Int // seclint:secret lcm(p-1, q-1)
	mu     *big.Int // seclint:secret lambda⁻¹ mod n

	// CRT precomputation.
	p, q     *big.Int // seclint:secret modulus factors
	pSq, qSq *big.Int // seclint:secret p², q²
	hp, hq   *big.Int // seclint:secret L_p(g^{p-1} mod p²)⁻¹ mod p, and the q analogue
	pInvQ    *big.Int // seclint:secret p⁻¹ mod q
}

// Ciphertext is a Paillier ciphertext, an element of Z_{n²}^*.
type Ciphertext struct {
	C *big.Int
}

// GenerateKey creates a key pair with a modulus of the given bit length.
// bits must be even and at least 64 (tests use small parameters; use 2048+
// in earnest).
func GenerateKey(rnd io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 || bits%2 != 0 {
		return nil, fmt.Errorf("paillier: invalid modulus size %d", bits)
	}
	for {
		p, err := rand.Prime(rnd, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generate prime: %w", err)
		}
		q, err := rand.Prime(rnd, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generate prime: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Div(lambda, gcd)
		mu := new(big.Int).ModInverse(lambda, n)
		if mu == nil {
			continue // gcd(lambda, n) != 1; retry with new primes
		}
		key := &PrivateKey{
			PublicKey: PublicKey{N: n, NSquared: new(big.Int).Mul(n, n)},
			lambda:    lambda,
			mu:        mu,
			p:         p, q: q,
			pSq: new(big.Int).Mul(p, p),
			qSq: new(big.Int).Mul(q, q),
		}
		// h_p = L_p(g^{p-1} mod p²)⁻¹ mod p with g = n+1, so
		// g^{p-1} mod p² = 1 + (p-1)·n mod p² and L_p is exact division.
		g := new(big.Int).Add(n, one)
		key.hp = crtH(g, p, key.pSq, pm1)
		key.hq = crtH(g, q, key.qSq, qm1)
		key.pInvQ = new(big.Int).ModInverse(p, q)
		if key.hp == nil || key.hq == nil || key.pInvQ == nil {
			continue // degenerate primes; retry
		}
		return key, nil
	}
}

// crtH computes L_r(g^{r-1} mod r²)⁻¹ mod r for a prime factor r.
func crtH(g, r, rSq, rm1 *big.Int) *big.Int {
	u := new(big.Int).Exp(g, rm1, rSq)
	u.Sub(u, one)
	u.Div(u, r)
	u.Mod(u, r)
	return u.ModInverse(u, r)
}

// MaxPlaintext returns the largest encodable plaintext, n-1.
func (pk *PublicKey) MaxPlaintext() *big.Int {
	return new(big.Int).Sub(pk.N, one)
}

// Encrypt encrypts 0 ≤ m < n. Safe for concurrent use: the protocol hot
// loops fan encryptions out over a worker pool.
// seclint:sanitizer Paillier encrypt boundary
func (pk *PublicKey) Encrypt(rnd io.Reader, m *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("paillier: plaintext out of range [0, n)")
	}
	rn, err := pk.randomizer(rnd)
	if err != nil {
		return nil, err
	}
	opEncrypt.Add(1)
	// c = (1 + m·n) · r^n mod n²
	c := new(big.Int).Mul(m, pk.N)
	c.Add(c, one)
	c.Mod(c, pk.NSquared)
	c.Mul(c, rn)
	c.Mod(c, pk.NSquared)
	return &Ciphertext{C: c}, nil
}

// EncryptInt64 encrypts a small non-negative integer.
// seclint:sanitizer Paillier encrypt boundary
func (pk *PublicKey) EncryptInt64(rnd io.Reader, m int64) (*Ciphertext, error) {
	if m < 0 {
		return nil, fmt.Errorf("paillier: negative plaintext %d", m)
	}
	return pk.Encrypt(rnd, big.NewInt(m))
}

// EncryptBatch encrypts a slice of plaintexts (each in [0, n)) across a
// worker pool (workers as in parallel.Resolve), preserving order. The
// fixed-base randomizer table is built eagerly before the pool starts —
// a batch is by definition hot enough to amortize it — so every worker
// draws its randomizers from the shared table instead of racing through
// the warmup counter with full-width exponentiations. rnd must be safe
// for concurrent use (crypto/rand.Reader is).
// seclint:sanitizer Paillier encrypt boundary
func (pk *PublicKey) EncryptBatch(rnd io.Reader, ms []*big.Int, workers int) ([]*Ciphertext, error) {
	if len(ms) > 1 {
		if err := pk.Precompute(rnd); err != nil {
			return nil, err
		}
	}
	return parallel.Map(len(ms), workers, func(i int) (*Ciphertext, error) {
		if ms[i] == nil {
			return nil, fmt.Errorf("paillier: nil plaintext at index %d", i)
		}
		return pk.Encrypt(rnd, ms[i])
	})
}

// EncryptSigned encrypts a possibly negative value by reducing it modulo n
// (two's-complement style: -x encodes as n-x). DecryptSigned reverses it.
// The PM polynomial coefficients are signed, so the protocol uses this pair.
// seclint:sanitizer Paillier encrypt boundary
func (pk *PublicKey) EncryptSigned(rnd io.Reader, m *big.Int) (*Ciphertext, error) {
	mm := new(big.Int).Mod(m, pk.N)
	return pk.Encrypt(rnd, mm)
}

// Decrypt recovers the plaintext in [0, n), via CRT when the key carries
// its factorization (keys from GenerateKey always do).
// seclint:source Paillier decryption output
func (sk *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	if err := sk.checkCiphertext(c); err != nil {
		return nil, err
	}
	opDecrypt.Add(1)
	if sk.p == nil {
		return sk.decryptLambda(c), nil
	}
	// m_p = L_p(c^{p-1} mod p²)·h_p mod p; m_q analogously.
	mp := new(big.Int).Exp(c.C, new(big.Int).Sub(sk.p, one), sk.pSq)
	mp.Sub(mp, one)
	mp.Div(mp, sk.p)
	mp.Mul(mp, sk.hp)
	mp.Mod(mp, sk.p)
	mq := new(big.Int).Exp(c.C, new(big.Int).Sub(sk.q, one), sk.qSq)
	mq.Sub(mq, one)
	mq.Div(mq, sk.q)
	mq.Mul(mq, sk.hq)
	mq.Mod(mq, sk.q)
	// CRT recombination: m = m_p + p·((m_q − m_p)·p⁻¹ mod q).
	t := new(big.Int).Sub(mq, mp)
	t.Mul(t, sk.pInvQ)
	t.Mod(t, sk.q)
	t.Mul(t, sk.p)
	t.Add(t, mp)
	return t, nil
}

// decryptLambda is the textbook λ/μ decryption; kept as the reference path
// and cross-checked against the CRT path in tests.
// seclint:source Paillier decryption output
func (sk *PrivateKey) decryptLambda(c *Ciphertext) *big.Int {
	u := new(big.Int).Exp(c.C, sk.lambda, sk.NSquared)
	// L(u) = (u-1)/n
	u.Sub(u, one)
	u.Div(u, sk.N)
	u.Mul(u, sk.mu)
	u.Mod(u, sk.N)
	return u
}

// DecryptSigned recovers a signed plaintext in (-n/2, n/2].
// seclint:source Paillier decryption output
func (sk *PrivateKey) DecryptSigned(c *Ciphertext) (*big.Int, error) {
	m, err := sk.Decrypt(c)
	if err != nil {
		return nil, err
	}
	half := new(big.Int).Rsh(sk.N, 1)
	if m.Cmp(half) > 0 {
		m.Sub(m, sk.N)
	}
	return m, nil
}

// Add returns a ciphertext of a+b given ciphertexts of a and b.
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.NSquared)
	return &Ciphertext{C: c}
}

// AddPlain returns a ciphertext of a+m given a ciphertext of a and a
// plaintext m (no fresh randomness needed; callers that require semantic
// security of the sum should Rerandomize).
func (pk *PublicKey) AddPlain(a *Ciphertext, m *big.Int) *Ciphertext {
	mm := new(big.Int).Mod(m, pk.N)
	g := new(big.Int).Mul(mm, pk.N)
	g.Add(g, one)
	g.Mod(g, pk.NSquared)
	c := new(big.Int).Mul(a.C, g)
	c.Mod(c, pk.NSquared)
	return &Ciphertext{C: c}
}

// MulConst returns a ciphertext of γ·a given a ciphertext of a.
func (pk *PublicKey) MulConst(a *Ciphertext, gamma *big.Int) *Ciphertext {
	g := new(big.Int).Mod(gamma, pk.N)
	return &Ciphertext{C: new(big.Int).Exp(a.C, g, pk.NSquared)}
}

// Rerandomize multiplies by a fresh encryption of zero, making the
// ciphertext unlinkable to its inputs.
func (pk *PublicKey) Rerandomize(rnd io.Reader, a *Ciphertext) (*Ciphertext, error) {
	zero, err := pk.Encrypt(rnd, new(big.Int))
	if err != nil {
		return nil, err
	}
	return pk.Add(a, zero), nil
}

// RandomPlaintext draws a uniformly random plaintext in [1, n), used as the
// masking factor r in the PM protocol's E(r·P(a') + ...).
func (pk *PublicKey) RandomPlaintext(rnd io.Reader) (*big.Int, error) {
	m, err := rand.Int(rnd, new(big.Int).Sub(pk.N, one))
	if err != nil {
		return nil, fmt.Errorf("paillier: random plaintext: %w", err)
	}
	return m.Add(m, one), nil
}

func (pk *PublicKey) randomUnit(rnd io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(rnd, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: random unit: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

func (pk *PublicKey) checkCiphertext(c *Ciphertext) error {
	if c == nil || c.C == nil {
		return fmt.Errorf("paillier: nil ciphertext")
	}
	if c.C.Sign() <= 0 || c.C.Cmp(pk.NSquared) >= 0 {
		return fmt.Errorf("paillier: ciphertext out of range")
	}
	return nil
}
