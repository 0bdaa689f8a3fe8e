package main

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"github.com/secmediation/secmediation/internal/crypto/commutative"
	"github.com/secmediation/secmediation/internal/crypto/groups"
)

// commutativeEngineRun is the before/after measurement of the
// commutative protocol's single-thread cross-encryption path:
// full-length exponents (the scheme exactly as Agrawal et al. state it,
// the baseline) against the short-exponent keys GenerateKey now
// produces, plus the QR membership test (Euler-criterion exponentiation
// vs the Jacobi symbol that replaced it).
type commutativeEngineRun struct {
	GroupBits      int     `json:"group_bits"`
	Values         int     `json:"values"`
	FullExpBits    int     `json:"full_exponent_bits"`
	ShortExpBits   int     `json:"short_exponent_bits"`
	FullNsPerOp    int64   `json:"full_exponent_ns_per_op"`
	ShortNsPerOp   int64   `json:"short_exponent_ns_per_op"`
	Speedup        float64 `json:"speedup"`
	QRTestEulerNs  int64   `json:"qrtest_euler_ns_per_op"`
	QRTestJacobiNs int64   `json:"qrtest_jacobi_ns_per_op"`
	QRTestSpeedup  float64 `json:"qrtest_speedup"`
	// The constant-time ladder (GenerateKeyConstantTime) against the
	// variable-time short-exponent engine on the same path: the price of
	// a secret-independent execution trajectory (docs/SECURITY.md).
	CTLadderNsPerOp  int64   `json:"ct_ladder_ns_per_op"`
	CTLadderOverhead float64 `json:"ct_ladder_overhead"`
}

// benchGroup resolves the -groupbits flag to its RFC 3526 group.
func benchGroup(bits int) (*groups.Group, error) {
	switch bits {
	case 1536:
		return groups.MODP1536(), nil
	case 2048:
		return groups.MODP2048(), nil
	case 3072:
		return groups.MODP3072(), nil
	default:
		return nil, fmt.Errorf("unsupported group size %d (use 1536, 2048 or 3072)", bits)
	}
}

// measureCommutativeEngine times single-thread batch re-encryption of
// `values` group elements — the protocol's cross-encryption inner loop —
// under a full-exponent key and a short-exponent key of the given group.
func measureCommutativeEngine(groupBits, values int) (commutativeEngineRun, error) {
	g, err := benchGroup(groupBits)
	if err != nil {
		return commutativeEngineRun{}, err
	}
	full, err := commutative.GenerateKeyFullExponent(g, rand.Reader)
	if err != nil {
		return commutativeEngineRun{}, err
	}
	short, err := commutative.GenerateKey(g, rand.Reader)
	if err != nil {
		return commutativeEngineRun{}, err
	}
	ct, err := commutative.GenerateKeyConstantTime(g, rand.Reader)
	if err != nil {
		return commutativeEngineRun{}, err
	}
	xs := make([]*big.Int, values)
	for i := range xs {
		if xs[i], err = g.RandomElement(rand.Reader); err != nil {
			return commutativeEngineRun{}, err
		}
	}
	crossWall := func(k *commutative.Key) (int64, error) {
		start := time.Now()
		if _, err := k.ReEncryptBatch(xs, 1); err != nil {
			return 0, err
		}
		return time.Since(start).Nanoseconds() / int64(values), nil
	}
	fullNs, err := crossWall(full)
	if err != nil {
		return commutativeEngineRun{}, err
	}
	shortNs, err := crossWall(short)
	if err != nil {
		return commutativeEngineRun{}, err
	}
	ctNs, err := crossWall(ct)
	if err != nil {
		return commutativeEngineRun{}, err
	}

	// Membership test: the Euler-criterion exponentiation x^q mod p that
	// Encrypt/Decrypt used to pay, vs the group's Jacobi-symbol test.
	start := time.Now()
	for _, x := range xs {
		if new(big.Int).Exp(x, g.Q, g.P).Cmp(big.NewInt(1)) != 0 {
			return commutativeEngineRun{}, fmt.Errorf("euler test rejected a group element")
		}
	}
	eulerNs := time.Since(start).Nanoseconds() / int64(values)
	start = time.Now()
	for _, x := range xs {
		if !g.IsQuadraticResidue(x) {
			return commutativeEngineRun{}, fmt.Errorf("jacobi test rejected a group element")
		}
	}
	jacobiNs := time.Since(start).Nanoseconds() / int64(values)

	return commutativeEngineRun{
		GroupBits:      groupBits,
		Values:         values,
		FullExpBits:    g.Q.BitLen(),
		ShortExpBits:   g.ShortExponentBits(),
		FullNsPerOp:    fullNs,
		ShortNsPerOp:   shortNs,
		Speedup:        float64(fullNs) / float64(shortNs),
		QRTestEulerNs:  eulerNs,
		QRTestJacobiNs: jacobiNs,
		QRTestSpeedup:  float64(eulerNs) / float64(jacobiNs),

		CTLadderNsPerOp:  ctNs,
		CTLadderOverhead: float64(ctNs) / float64(shortNs),
	}, nil
}
