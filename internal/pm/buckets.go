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
// bytes) of bucket i's coefficient c_k.
type ECBuckets struct {
	Polys [][][]byte
}

// EncryptEC encrypts every bucket polynomial under the client's point.
// The (bucket, coefficient) space is flattened before fanning out over
// the worker pool, so the pool stays evenly loaded whether the parameters
// give one huge polynomial or many low-degree ones.
func (b *Buckets) EncryptEC(pk *ecelgamal.PublicKey, workers int) (*ECBuckets, error) {
	if b.N.Cmp(ecelgamal.Order()) != 0 {
		return nil, fmt.Errorf("pm: bucket modulus is not the group order")
	}
	stride := b.MaxDegree() + 1 // every bucket is padded to uniform degree
	flat, err := parallel.Map(len(b.Polys)*stride, workers, func(i int) ([]byte, error) {
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
// its payload, evaluate the bucket polynomial a′ falls into by Horner's
// rule over ciphertexts, and return e = r·E(P(a′)) + E(s) for fresh
// nonzero r and s (E's fresh ρ re-randomizes e) with the blob
// SealPayload(s·G, a′, payload, aad). Order is preserved across the
// worker pool. Every coefficient is decoded, and so validated, once
// before any evaluation; a malformed one is an error.
func (eb *ECBuckets) MaskedEvalBatch(pk *ecelgamal.PublicKey, roots []*big.Int, payloads [][]byte, aad []byte, workers int) ([]Eval, error) {
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
	return parallel.Map(len(roots), workers, func(i int) (Eval, error) {
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
		es, err := pk.Encrypt(rand.Reader, s)
		if err != nil {
			return Eval{}, err
		}
		sealed, err := SealPayload(ecelgamal.BaseMul(s), a, payloads[i], aad)
		if err != nil {
			return Eval{}, err
		}
		return Eval{Cipher: ecelgamal.Add(ecelgamal.ScalarMul(acc, r), es).Bytes(), Sealed: sealed}, nil
	})
}
