package hybrid

import (
	"crypto/ecdh"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// A client's query keys all derive from one long-lived root key x with
// public point X: query c uses x_c = x + h_c mod n, whose point is
// X_c = X + h_c·G, with h_c = SHA-256(tag ‖ X ‖ uvarint(c)) mod n. The
// client holds x and computes x_c; a source holds X and computes X_c.
// h_c is public, so a party that knows one x_c knows x.

// queryKeyTag domain-separates the derivation offset from every other
// SHA-256 use.
const queryKeyTag = "secmediation/query-key-offset\x00"

// ErrDegenerateQueryKey reports a counter whose derived key is unusable:
// an offset h_c = 0, which would reuse the root, or x + h_c = 0 mod n,
// whose point is the identity. Either has probability about 2⁻²⁵⁶; the
// client moves on to the next counter and a source denies the query.
var ErrDegenerateQueryKey = errors.New("hybrid: query key derivation is degenerate")

// p256N is the P-256 group order n in little-endian 64-bit limbs.
var p256N = [4]uint64{0xf3b9cac2fc632551, 0xbce6faada7179e84, 0xffffffffffffffff, 0xffffffff00000000}

// limbs reads 32 big-endian bytes as little-endian limbs.
func limbs(b []byte) (l [4]uint64) {
	for i := range l {
		l[i] = binary.BigEndian.Uint64(b[24-8*i:])
	}
	return l
}

// putLimbs writes little-endian limbs to b as 32 big-endian bytes.
func putLimbs(b []byte, l [4]uint64) {
	for i, v := range l {
		binary.BigEndian.PutUint64(b[24-8*i:], v)
	}
}

// reduceOnce returns carry·2²⁵⁶ + l, less n when that is at least n, for
// a value below 2n. It takes the same time whatever the value.
func reduceOnce(l [4]uint64, carry uint64) [4]uint64 {
	var d [4]uint64
	var borrow uint64
	for i := range d {
		d[i], borrow = bits.Sub64(l[i], p256N[i], borrow)
	}
	_, borrow = bits.Sub64(carry, 0, borrow)
	keep := -borrow // all ones when the subtraction went below zero
	for i := range l {
		l[i] = l[i]&keep | d[i]&^keep
	}
	return l
}

// queryKeyOffset is h_c as little-endian limbs, from the root's
// compressed point.
func queryKeyOffset(root []byte, c uint64) ([4]uint64, error) {
	h := sha256.New()
	h.Write([]byte(queryKeyTag))
	h.Write(root)
	h.Write(binary.AppendUvarint(nil, c))
	off := reduceOnce(limbs(h.Sum(nil)), 0)
	if off == [4]uint64{} {
		return off, ErrDegenerateQueryKey
	}
	return off, nil
}

// DeriveQueryKey returns query c's private key x + h_c mod n under the
// root key. The addition runs on fixed limbs in constant time; the one
// multiplication is the fixed-base one that builds the returned key.
func DeriveQueryKey(root *ecdh.PrivateKey, c uint64) (*ecdh.PrivateKey, error) {
	off, err := queryKeyOffset(CompressPoint(root.PublicKey()), c)
	if err != nil {
		return nil, err
	}
	x := limbs(root.Bytes())
	var sum [4]uint64
	var carry uint64
	for i := range sum {
		sum[i], carry = bits.Add64(x[i], off[i], carry)
	}
	b := make([]byte, 32)
	putLimbs(b, reduceOnce(sum, carry))
	key, err := ecdh.P256().NewPrivateKey(b)
	clear(b)
	if err != nil {
		// NewPrivateKey refuses only the zero scalar here.
		return nil, ErrDegenerateQueryKey
	}
	return key, nil
}

// DeriveQueryPublic returns query c's public key X + h_c·G from the
// root's point: one fixed-base multiplication and one addition. The
// root is a validated point (ParsePoint).
func DeriveQueryPublic(root *ecdh.PublicKey, c uint64) (*ecdh.PublicKey, error) {
	off, err := queryKeyOffset(CompressPoint(root), c)
	if err != nil {
		return nil, err
	}
	var h [32]byte
	putLimbs(h[:], off)
	curve := elliptic.P256()
	raw := root.Bytes() // 0x04 ‖ x ‖ y
	hx, hy := curve.ScalarBaseMult(h[:])
	x, y := curve.Add(new(big.Int).SetBytes(raw[1:PointSize]), new(big.Int).SetBytes(raw[PointSize:]), hx, hy)
	if x.Sign() == 0 && y.Sign() == 0 { // crypto/elliptic's identity
		return nil, ErrDegenerateQueryKey
	}
	out := make([]byte, len(raw))
	out[0] = 4
	x.FillBytes(out[1:PointSize])
	y.FillBytes(out[PointSize:])
	pub, err := ecdh.P256().NewPublicKey(out)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	return pub, nil
}
