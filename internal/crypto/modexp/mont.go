package modexp

import (
	"fmt"
	"math/big"
	"math/bits"
)

// Modulus is the reusable Montgomery context of one odd modulus: the
// word-level representation of n, the Montgomery constant -n⁻¹ mod 2⁶⁴,
// and the conversion factors R mod n and R² mod n (R = 2^(64·k) for k
// words). It holds public parameters only — the group modulus is part of
// dom_f and known to every party — so one context may be shared by any
// number of engines.
//
// All word vectors are little-endian []uint64, independent of the
// platform word size, so transcripts are architecture-independent.
type Modulus struct {
	n     *big.Int // the modulus itself, for big.Int interop
	nw    []uint64 // n in words
	k     int      // word count
	n0inv uint64   // -n⁻¹ mod 2⁶⁴ (CIOS reduction constant)
	rr    []uint64 // R² mod n: toMont multiplier
	one   []uint64 // the plain value 1: fromMont multiplier (a·R·1·R⁻¹ = a)
}

// NewModulus builds the Montgomery context for an odd modulus n > 1.
// The construction costs one big.Int division.
func NewModulus(n *big.Int) (*Modulus, error) {
	if n == nil || n.Sign() <= 0 || n.Bit(0) == 0 || n.Cmp(bigOne) <= 0 {
		return nil, fmt.Errorf("modexp: modulus must be odd and > 1")
	}
	k := (n.BitLen() + 63) / 64
	m := &Modulus{n: new(big.Int).Set(n), k: k}
	m.nw = wordsOf(m.n, k)
	// n0inv = -n⁻¹ mod 2⁶⁴ by Newton iteration on the low word
	// (five steps double the valid bits from 4 to 64).
	inv := m.nw[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - m.nw[0]*inv
	}
	m.n0inv = -inv
	r := new(big.Int).Lsh(bigOne, uint(64*k))
	m.one = wordsOf(bigOne, k)
	rSq := new(big.Int).Mul(r, r)
	m.rr = wordsOf(rSq.Mod(rSq, n), k)
	return m, nil
}

// N returns the modulus.
func (m *Modulus) N() *big.Int { return new(big.Int).Set(m.n) }

var bigOne = big.NewInt(1)

// wordsOf converts 0 ≤ x < 2^(64k) to k little-endian words.
func wordsOf(x *big.Int, k int) []uint64 {
	b := x.Bytes() // big-endian
	w := make([]uint64, k)
	for i := 0; i < len(b); i++ {
		byteIdx := len(b) - 1 - i // i-th least significant byte
		w[i/8] |= uint64(b[byteIdx]) << (8 * uint(i%8))
	}
	return w
}

// bigOf converts little-endian words back to a big.Int.
func bigOf(w []uint64) *big.Int {
	b := make([]byte, len(w)*8)
	for i, word := range w {
		for j := 0; j < 8; j++ {
			b[len(b)-1-(i*8+j)] = byte(word >> (8 * uint(j)))
		}
	}
	return new(big.Int).SetBytes(b)
}

// montMulCT computes z = x·y·R⁻¹ mod n (CIOS: coarsely integrated
// operand scanning, Menezes et al. Alg. 14.36) into z, using t as
// scratch. x, y < n is required; z < n is guaranteed. z must not alias x
// or y; len(z) = k, len(t) = k+2. The final reduction is constant-time:
// the subtraction is always computed and the result selected by mask, so
// no branch or memory access depends on the value being reduced. The
// CIOS core itself is already fixed-trajectory (bits.Mul64/Add64 over
// fixed loop bounds), which makes this the multiplication kernel of the
// constant-time ladder (ct.go).
func (m *Modulus) montMulCT(z, x, y, t []uint64) {
	k := m.k
	m.montMulCore(z, x, y, t)
	// The loop invariant leaves t < 2n, so the carry word t[k] is 0 or
	// 1. Subtract n iff t[k]·2^(64k) + z ≥ n: always compute z-n into t,
	// then select.
	var borrow uint64
	for i := 0; i < k; i++ {
		t[i], borrow = bits.Sub64(z[i], m.nw[i], borrow)
	}
	// Reduce iff the high word is set (z wrapped past 2^(64k) ≥ n) or
	// the subtraction did not borrow (z ≥ n).
	ctSelectWords(z, t[:k], ctMask(t[k]|(borrow^1)))
}

// montMulCore runs the CIOS loop, leaving the sub-2n result in z (low k
// words) and its carry bit in t[k]. len(z) = k, len(t) = k+2.
func (m *Modulus) montMulCore(z, x, y, t []uint64) {
	k := m.k
	n := m.nw
	for i := range t {
		t[i] = 0
	}
	for i := 0; i < k; i++ {
		// t += x[i]·y
		var carry uint64
		xi := x[i]
		for j := 0; j < k; j++ {
			hi, lo := bits.Mul64(xi, y[j])
			var c uint64
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[j] = lo
			carry = hi
		}
		var c uint64
		t[k], c = bits.Add64(t[k], carry, 0)
		t[k+1] += c
		// t = (t + mf·n) / 2⁶⁴ — mf chosen so the low word cancels
		mf := t[0] * m.n0inv
		hi, lo := bits.Mul64(mf, n[0])
		_, c = bits.Add64(lo, t[0], 0)
		carry = hi + c
		for j := 1; j < k; j++ {
			hi, lo := bits.Mul64(mf, n[j])
			var c uint64
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[j-1] = lo
			carry = hi
		}
		t[k-1], c = bits.Add64(t[k], carry, 0)
		t[k] = t[k+1] + c
		t[k+1] = 0
	}
	copy(z, t[:k])
}

// ctMask expands a 0/1 bit into a 0/all-ones word without branching.
func ctMask(bit uint64) uint64 { return -bit }

// ctSelectWords sets z[i] = b[i] where mask is all-ones and leaves z
// untouched where mask is zero, in constant time.
func ctSelectWords(z, b []uint64, mask uint64) {
	for i := range z {
		z[i] ^= mask & (z[i] ^ b[i])
	}
}

// ctEqMask returns all-ones when a == b and zero otherwise, without
// branching — the comparator of the masked table scan in ct.go.
func ctEqMask(a, b uint64) uint64 {
	x := a ^ b
	return ctMask(((x | -x) >> 63) ^ 1)
}
