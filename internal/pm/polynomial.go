// Package pm implements the private-matching substrate of the paper's
// Section 5 protocol (after Freedman, Nissim, Pinkas, EUROCRYPT'04):
// polynomials over Z_q whose roots encode the active domain of the join
// attribute, their coefficients encrypted under the client's exponential
// EC-ElGamal key (internal/crypto/ecelgamal), and the oblivious
// evaluation with which a source attaches a tuple-set payload to each of
// its values a′:
//
//	e = r·(E(P(a′)) + Z) + (0, s·G),   blob = AEAD_{KDF(s·G)}(payload),
//
// with fresh nonzero r and s, and Z a fresh encryption of zero under the
// client's signed point, one per batch. The client decrypts e to the
// point M = (r·P(a′) + s)·G and opens the blob under KDF(M): it opens iff
// P(a′) = 0, so no discrete logarithm is ever solved.
//
// It also implements FNP's bucketing optimization (hashing inputs into
// buckets with low-degree polynomials), which the paper alludes to when
// noting that "Freedman et al. show how the polynomial can be evaluated
// efficiently". paillier.go keeps the Paillier form of the same steps,
// which no protocol calls any more.
package pm

import (
	"crypto/sha256"
	"fmt"
	"math/big"

	"github.com/secmediation/secmediation/internal/relation"
)

// RootBytes is the width of a value root: values are mapped into Z_q by a
// truncated SHA-256 of their canonical encoding, so both sources derive
// identical roots for identical join values.
const RootBytes = 16

// RootOfBytes maps a canonical byte encoding (a single value's encoding or
// a composite join key's) to its polynomial-root encoding.
func RootOfBytes(data []byte) *big.Int {
	sum := sha256.Sum256(append([]byte("secmediation/pm-root\x00"), data...))
	return new(big.Int).SetBytes(sum[:RootBytes])
}

// RootOfValue maps an attribute value to its polynomial-root encoding.
func RootOfValue(v relation.Value) *big.Int {
	return RootOfBytes(v.Encode(nil))
}

// Polynomial is P(x) = Σ c_k x^k with coefficients in Z_n, constructed as
// Π (a_i − x) over the root encodings a_i.
type Polynomial struct {
	// Coeffs holds c_0 … c_d (degree order). The coefficients encode a
	// party's private active domain, so their bits must not steer timing
	// before encryption.
	//
	// seclint:secret plaintext set-encoding coefficients
	Coeffs []*big.Int
	// N is the coefficient modulus (the EC group order q).
	N *big.Int
}

// FromRoots expands Π (a_i − x) mod n. At least one root is required: the
// protocols never ship an empty polynomial (BuildBuckets pads an empty
// active domain with filler roots).
func FromRoots(roots []*big.Int, n *big.Int) (*Polynomial, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("pm: polynomial needs at least one root")
	}
	// Start with P(x) = 1 and multiply factor by factor. Factor (a − x)
	// has coefficients [a, −1].
	coeffs := []*big.Int{big.NewInt(1)}
	for _, a := range roots {
		am := new(big.Int).Mod(a, n)
		next := make([]*big.Int, len(coeffs)+1)
		for i := range next {
			next[i] = new(big.Int)
		}
		for i, c := range coeffs {
			// · a contributes to degree i
			t := new(big.Int).Mul(c, am)
			next[i].Add(next[i], t)
			// · (−x) contributes to degree i+1
			next[i+1].Sub(next[i+1], c)
		}
		for i := range next {
			next[i].Mod(next[i], n)
		}
		coeffs = next
	}
	return &Polynomial{Coeffs: coeffs, N: n}, nil
}

// Degree returns the polynomial degree.
func (p *Polynomial) Degree() int { return len(p.Coeffs) - 1 }

// Eval evaluates P at x over Z_n (plaintext; used in tests and by the
// bucketing dispatcher).
func (p *Polynomial) Eval(x *big.Int) *big.Int {
	xm := new(big.Int).Mod(x, p.N)
	acc := new(big.Int)
	for k := len(p.Coeffs) - 1; k >= 0; k-- {
		acc.Mul(acc, xm)
		acc.Add(acc, p.Coeffs[k])
		acc.Mod(acc, p.N)
	}
	return acc
}
