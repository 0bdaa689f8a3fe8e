package pm

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"

	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	"github.com/secmediation/secmediation/internal/parallel"
)

// MaxBuckets caps a chooser's bucket count, and so what a receiver of
// encrypted buckets accepts: every bucket, even an empty one, costs the
// chooser its encrypted coefficients.
const MaxBuckets = 1 << 12

// BucketCount is the bucket count B a chooser with n distinct roots
// uses: B = 2^⌈log₂⌈n/2⌉⌉, 1 for n ≤ 2, at most MaxBuckets. It depends
// on n alone, so the count a party sees tells it ⌈log₂⌈n/2⌉⌉ of the
// opposite domain and nothing more. Of the power-of-two rules, n/2
// gives the fewest point multiplications per query on the benchmark's
// shapes (docs/PROTOCOLS.md has the count it minimizes).
func BucketCount(n int) int {
	b := 1
	for b < (n+1)/2 && b < MaxBuckets {
		b <<= 1
	}
	return b
}

// BucketIndex assigns a root to one of b buckets by hashing; chooser and
// sender agree on the assignment because it depends only on the root.
func BucketIndex(root *big.Int, b int) int {
	rb := make([]byte, RootBytes)
	root.FillBytes(rb)
	sum := sha256.Sum256(append([]byte("secmediation/pm-bucket\x00"), rb...))
	return int(binary.BigEndian.Uint64(sum[:8]) % uint64(b))
}

// Buckets is FNP's efficiency optimization: the chooser hashes its inputs
// into b buckets and interpolates one low-degree polynomial per bucket,
// all padded to a uniform degree so bucket loads stay hidden. The sender
// evaluates only the polynomial of the bucket its own value falls into,
// reducing per-evaluation cost from Θ(|dom|) to Θ(max-load).
type Buckets struct {
	// Polys holds one polynomial per bucket, uniform degree.
	Polys []*Polynomial
	// N is the shared modulus.
	N *big.Int
}

// BuildBuckets distributes the roots over b buckets and pads every bucket
// with random filler roots (negligibly likely to collide with a real value
// root) up to the maximum load. An empty root set gives b filler buckets
// of load 1, which look like those of any one-value domain.
func BuildBuckets(roots []*big.Int, b int, n *big.Int) (*Buckets, error) {
	if b < 1 {
		return nil, fmt.Errorf("pm: bucket count %d < 1", b)
	}
	groups := make([][]*big.Int, b)
	for _, r := range roots {
		i := BucketIndex(r, b)
		groups[i] = append(groups[i], r)
	}
	maxLoad := 1
	for _, g := range groups {
		if len(g) > maxLoad {
			maxLoad = len(g)
		}
	}
	bs := &Buckets{N: n, Polys: make([]*Polynomial, b)}
	limit := new(big.Int).Lsh(big.NewInt(1), 8*RootBytes)
	for i, g := range groups {
		padded := append([]*big.Int(nil), g...)
		for len(padded) < maxLoad {
			f, err := rand.Int(rand.Reader, limit)
			if err != nil {
				return nil, fmt.Errorf("pm: filler root: %w", err)
			}
			padded = append(padded, f)
		}
		p, err := FromRoots(padded, n)
		if err != nil {
			return nil, err
		}
		bs.Polys[i] = p
	}
	return bs, nil
}

// MaxDegree returns the uniform per-bucket polynomial degree.
func (b *Buckets) MaxDegree() int { return b.Polys[0].Degree() }

// ECBuckets is the encrypted form the chooser ships to the sender:
// Polys[i][k] is the ecelgamal ciphertext (ecelgamal.CiphertextSize
// bytes) of bucket i's coefficient c_k, for k < L. Every bucket has the
// same degree L, and its leading coefficient c_L = (−1)^L (FromRoots
// expands Π (a_i − x)) is public, so it does not travel.
type ECBuckets struct {
	Polys [][][]byte
}

// EncryptEC encrypts every bucket polynomial but its public leading
// coefficient under the client's point. The (bucket, coefficient) space
// is flattened before fanning out over the worker pool, so the pool
// stays evenly loaded whether the roots give one huge polynomial or
// many low-degree ones.
func (b *Buckets) EncryptEC(pk *ecelgamal.PublicKey) (*ECBuckets, error) {
	if b.N.Cmp(ecelgamal.Order()) != 0 {
		return nil, fmt.Errorf("pm: bucket modulus is not the group order")
	}
	stride := b.MaxDegree() // every bucket is padded to uniform degree
	flat, err := parallel.Map(len(b.Polys)*stride, 0, func(i int) ([]byte, error) {
		c, err := pk.Encrypt(rand.Reader, b.Polys[i/stride].Coeffs[i%stride])
		if err != nil {
			return nil, err
		}
		return c.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	out := &ECBuckets{Polys: make([][][]byte, len(b.Polys))}
	for i := range out.Polys {
		out.Polys[i] = flat[i*stride : (i+1)*stride]
	}
	return out, nil
}

// Eval is one masked evaluation e and the payload blob sealed under the
// key its match decrypts to.
type Eval struct {
	Cipher []byte
	Sealed []byte
}

// MaskedEvalBatch is the sender's step 5/6: for every own root a′ with
// its payload, evaluate the bucket polynomial a′ falls into under
// encryption and return e = r·(E(P(a′)) + Z) + (0, s·G) with the blob
// SealPayload(s·G, payload, aad), for fresh nonzero r and s. Z = (ρ·G,
// ρ·X) is one fresh encryption of zero under the client's authenticated
// point pk, drawn per batch and added to every bucket's constant
// coefficient, so each e carries its own re-randomization r·ρ under X.
// The coefficients arrive through the mediator unauthenticated: without
// a term under X, a relay that encrypted them under its own key would
// decrypt e at a guessed root to s·G (docs/SECURITY.md, *EC-ElGamal*).
// Horner's rule runs over the L shipped coefficients only; the public
// leading term c_L·a′^L, c_L = (−1)^L, is scaled by r and joins s in one
// fixed-base multiplication. Order is preserved across the worker pool.
// Every coefficient of every bucket is decoded, and so validated, before
// any evaluation, including buckets no own root falls into: which
// buckets a batch reads must not decide whether it fails.
func (eb *ECBuckets) MaskedEvalBatch(pk *ecelgamal.PublicKey, roots []*big.Int, payloads [][]byte, aad []byte) ([]Eval, error) {
	if len(roots) != len(payloads) {
		return nil, fmt.Errorf("pm: %d roots but %d payloads", len(roots), len(payloads))
	}
	if len(eb.Polys) == 0 {
		return nil, fmt.Errorf("pm: no encrypted buckets")
	}
	polys := make([][]*ecelgamal.Ciphertext, len(eb.Polys))
	for i, p := range eb.Polys {
		if len(p) == 0 {
			return nil, fmt.Errorf("pm: encrypted bucket %d has no coefficients", i)
		}
		polys[i] = make([]*ecelgamal.Ciphertext, len(p))
		for k, c := range p {
			ct, err := ecelgamal.DecodeCiphertext(c)
			if err != nil {
				return nil, fmt.Errorf("pm: bucket %d coefficient %d: %w", i, k, err)
			}
			polys[i][k] = ct
		}
	}
	z, err := pk.Encrypt(rand.Reader, new(big.Int))
	if err != nil {
		return nil, err
	}
	for _, p := range polys {
		p[0] = ecelgamal.Add(p[0], z)
	}
	q := ecelgamal.Order()
	return parallel.Map(len(roots), 0, func(i int) (Eval, error) {
		a := roots[i]
		coeffs := polys[BucketIndex(a, len(polys))]
		acc := coeffs[len(coeffs)-1]
		for k := len(coeffs) - 2; k >= 0; k-- {
			acc = ecelgamal.Add(ecelgamal.ScalarMul(acc, a), coeffs[k])
		}
		r, err := ecelgamal.RandomScalar(rand.Reader)
		if err != nil {
			return Eval{}, err
		}
		s, err := ecelgamal.RandomScalar(rand.Reader)
		if err != nil {
			return Eval{}, err
		}
		lead := new(big.Int).Exp(a, big.NewInt(int64(len(coeffs))), q)
		if len(coeffs)%2 == 1 {
			lead.Neg(lead)
		}
		mask := lead.Add(lead.Mul(lead, r), s) // r·c_L·a′^L + s
		sealed, err := SealPayload(ecelgamal.BaseMul(s), payloads[i], aad)
		if err != nil {
			return Eval{}, err
		}
		return Eval{Cipher: ecelgamal.AddPlain(ecelgamal.ScalarMul(acc, r), mask).Bytes(), Sealed: sealed}, nil
	})
}
