package hybrid

import (
	"bytes"
	"crypto/ecdh"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"
)

// rootWithScalar is the root key of scalar x.
func rootWithScalar(t *testing.T, x *big.Int) *ecdh.PrivateKey {
	t.Helper()
	k, err := ecdh.P256().NewPrivateKey(x.FillBytes(make([]byte, 32)))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// Over random roots and counters, and the roots whose sum with the
// offset wraps n or 2²⁵⁶, the public derivation is the public key of the
// private one, and the private one is x + h_c mod n.
func TestDeriveQueryKeyProperty(t *testing.T) {
	n := elliptic.P256().Params().N
	check := func(root *ecdh.PrivateKey, c uint64) bool {
		priv, err := DeriveQueryKey(root, c)
		if err != nil {
			t.Errorf("DeriveQueryKey(%d): %v", c, err)
			return false
		}
		pub, err := DeriveQueryPublic(root.PublicKey(), c)
		if err != nil {
			t.Errorf("DeriveQueryPublic(%d): %v", c, err)
			return false
		}
		if !pub.Equal(priv.PublicKey()) {
			t.Errorf("counter %d: public derivation differs from the private key's point", c)
			return false
		}
		sum := sha256.Sum256(append(append([]byte(queryKeyTag), CompressPoint(root.PublicKey())...), binary.AppendUvarint(nil, c)...))
		want := new(big.Int).SetBytes(sum[:])
		want.Add(want.Mod(want, n), new(big.Int).SetBytes(root.Bytes())).Mod(want, n)
		if !bytes.Equal(priv.Bytes(), want.FillBytes(make([]byte, 32))) {
			t.Errorf("counter %d: x_c = %x, want x + h_c mod n = %x", c, priv.Bytes(), want)
			return false
		}
		return true
	}
	if err := quick.Check(func(c uint64) bool { return check(queryKey(t), c%(1<<21)) }, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
	for _, x := range []*big.Int{big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1)), new(big.Int).Rsh(n, 1)} {
		for c := uint64(0); c < 8; c++ {
			check(rootWithScalar(t, x), c)
		}
	}
}

// Each counter yields its own key, and a key derived under one counter
// does not open a session sealed to another's.
func TestDeriveQueryKeyFresh(t *testing.T) {
	root := queryKey(t)
	k0, err := DeriveQueryKey(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := DeriveQueryKey(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k0.Equal(k1) || k0.Equal(root) {
		t.Fatal("two counters derived the same key")
	}
	sess, err := NewSessionECDH(k0.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sess.Seal([]byte("query 0"), nil)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewReceiverECDH(k1, sess.Share())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Open(ct, nil); err == nil {
		t.Error("counter 1's key opened a session sealed to counter 0's")
	}
}

// reduceOnce maps every value below 2n to its residue mod n: n itself
// to 0, the largest 256-bit value and the largest sum of two residues
// (2n − 2, which carries out of 256 bits) to theirs.
func TestReduceOnce(t *testing.T) {
	n := elliptic.P256().Params().N
	toBig := func(l [4]uint64, carry uint64) *big.Int {
		var b [33]byte
		b[0] = byte(carry)
		putLimbs(b[1:], l)
		return new(big.Int).SetBytes(b[:])
	}
	var top [4]uint64
	for i := range top {
		top[i] = ^uint64(0)
	}
	var twice [4]uint64 // 2n − 2 mod 2²⁵⁶, with a carry
	var carry uint64
	for i := range twice {
		twice[i], carry = bits.Add64(p256N[i], p256N[i], carry)
	}
	twice[0] -= 2 // the low limb is well above 2: no borrow
	cases := []struct {
		l     [4]uint64
		carry uint64
	}{{p256N, 0}, {top, 0}, {twice, carry}, {[4]uint64{1}, 0}}
	for _, tc := range cases {
		in := toBig(tc.l, tc.carry)
		if got, want := toBig(reduceOnce(tc.l, tc.carry), 0), new(big.Int).Mod(in, n); got.Cmp(want) != 0 {
			t.Errorf("reduceOnce(%x) = %x, want %x", in, got, want)
		}
	}
}
