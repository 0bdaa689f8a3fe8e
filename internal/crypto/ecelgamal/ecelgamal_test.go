package ecelgamal

import (
	"bytes"
	"crypto/ecdh"
	"crypto/elliptic"
	"crypto/rand"
	"math/big"
	"testing"
)

// refPoint is the compressed k·G computed straight from crypto/elliptic,
// independent of the package's own helpers.
func refPoint(k *big.Int) []byte {
	c := elliptic.P256()
	kk := new(big.Int).Mod(k, c.Params().N)
	x, y := c.ScalarBaseMult(kk.Bytes())
	return elliptic.MarshalCompressed(c, x, y)
}

func mustKey(t testing.TB) *PrivateKey {
	t.Helper()
	k, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return KeyFromECDH(k)
}

func mustEncrypt(t testing.TB, pk *PublicKey, m *big.Int) *Ciphertext {
	t.Helper()
	c, err := pk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDecryptIsPlaintextPoint(t *testing.T) {
	sk := mustKey(t)
	pk, err := ParsePublicKey(sk.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*big.Int{big.NewInt(1), big.NewInt(123456789), new(big.Int).Sub(Order(), big.NewInt(1))} {
		if got := sk.Decrypt(mustEncrypt(t, pk, m)); !bytes.Equal(got, refPoint(m)) {
			t.Errorf("Decrypt(E(%v)) is not %v·G", m, m)
		}
	}
}

// A key built from an ECDH scalar has the ECDH key's public point and
// decrypts like any other.
func TestKeyFromECDH(t *testing.T) {
	ek, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sk := KeyFromECDH(ek)
	raw := ek.PublicKey().Bytes()
	want := append([]byte{2 | raw[len(raw)-1]&1}, raw[1:PointSize]...)
	if !bytes.Equal(sk.PublicKey(), want) {
		t.Errorf("public point % x, want the ECDH key's % x", sk.PublicKey(), want)
	}
	pk, err := ParsePublicKey(sk.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	m := big.NewInt(42)
	if got := sk.Decrypt(mustEncrypt(t, pk, m)); !bytes.Equal(got, refPoint(m)) {
		t.Error("Decrypt(E(42)) under the ECDH scalar is not 42·G")
	}
}

func TestAdditiveAndScalarHomomorphism(t *testing.T) {
	sk := mustKey(t)
	pk, _ := ParsePublicKey(sk.PublicKey())
	for i := 0; i < 8; i++ {
		a, _ := RandomScalar(rand.Reader)
		b, _ := RandomScalar(rand.Reader)
		k, _ := RandomScalar(rand.Reader)
		ea, eb := mustEncrypt(t, pk, a), mustEncrypt(t, pk, b)
		sum := new(big.Int).Add(a, b)
		if got := sk.Decrypt(Add(ea, eb)); !bytes.Equal(got, refPoint(sum)) {
			t.Fatalf("Decrypt(E(a)+E(b)) != (a+b)G")
		}
		ka := new(big.Int).Mul(k, a)
		if got := sk.Decrypt(ScalarMul(ea, k)); !bytes.Equal(got, refPoint(ka)) {
			t.Fatalf("Decrypt(k·E(a)) != kaG")
		}
		// Through the wire form, as the protocol uses it.
		wire, err := DecodeCiphertext(Add(ea, eb).Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got := sk.Decrypt(wire); !bytes.Equal(got, refPoint(sum)) {
			t.Fatalf("round-tripped ciphertext decrypts wrongly")
		}
	}
}

// AddPlain adds a public plaintext, negative ones included, to a
// ciphertext, and leaves its A point as it was.
func TestAddPlain(t *testing.T) {
	sk := mustKey(t)
	pk, _ := ParsePublicKey(sk.PublicKey())
	m := big.NewInt(1000)
	c := mustEncrypt(t, pk, m)
	for _, k := range []*big.Int{big.NewInt(1), big.NewInt(-7), new(big.Int).Add(Order(), big.NewInt(3))} {
		sum := AddPlain(c, k)
		if got, want := sk.Decrypt(sum), refPoint(new(big.Int).Add(m, k)); !bytes.Equal(got, want) {
			t.Errorf("Decrypt(E(m) + %v) is not (m + %v)·G", k, k)
		}
		if !bytes.Equal(sum.Bytes()[:PointSize], c.Bytes()[:PointSize]) {
			t.Errorf("AddPlain(%v) changed A", k)
		}
	}
}

// Every point operation is counted once where it happens: an encryption
// is two fixed-base multiplications, one variable-base one and one
// addition; a ciphertext ScalarMul or Add counts both its points; a
// decryption is one multiplication and one addition; AddPlain is one
// fixed-base multiplication and one addition; a key taken from an ECDH
// key multiplies nothing.
func TestOpCounts(t *testing.T) {
	sk := mustKey(t)
	pk, _ := ParsePublicKey(sk.PublicKey())
	k := big.NewInt(5)
	for _, tc := range []struct {
		name           string
		op             func()
		mul, base, add int64
	}{
		{"Encrypt", func() { mustEncrypt(t, pk, k) }, 1, 2, 1},
		{"ScalarMul", func() { ScalarMul(mustEncrypt(t, pk, k), k) }, 1 + 2, 2, 1},
		{"Add", func() { Add(mustEncrypt(t, pk, k), mustEncrypt(t, pk, k)) }, 2, 4, 2 + 2},
		{"AddPlain", func() { AddPlain(mustEncrypt(t, pk, k), k) }, 1, 2 + 1, 1 + 1},
		{"KeyFromECDH", func() { mustKey(t) }, 0, 0, 0},
		{"Decrypt", func() { sk.Decrypt(mustEncrypt(t, pk, k)) }, 1 + 1, 2, 1 + 1},
		{"BaseMul", func() { BaseMul(k) }, 0, 1, 0},
	} {
		m0, b0, a0 := opMul.Count(), opBaseMul.Count(), opAdd.Count()
		tc.op()
		if m, b, a := opMul.Count()-m0, opBaseMul.Count()-b0, opAdd.Count()-a0; m != tc.mul || b != tc.base || a != tc.add {
			t.Errorf("%s: mul/base_mul/add = %d/%d/%d, want %d/%d/%d", tc.name, m, b, a, tc.mul, tc.base, tc.add)
		}
	}
}

// Each encryption draws its own ρ: equal plaintexts give distinct
// ciphertexts that still decrypt alike.
func TestEncryptRerandomizes(t *testing.T) {
	sk := mustKey(t)
	pk, _ := ParsePublicKey(sk.PublicKey())
	m := big.NewInt(42)
	seen := map[string]bool{}
	for i := 0; i < 16; i++ {
		c := mustEncrypt(t, pk, m)
		b := c.Bytes()
		if len(b) != CiphertextSize {
			t.Fatalf("ciphertext is %d bytes, want %d", len(b), CiphertextSize)
		}
		if seen[string(b[:PointSize])] || seen[string(b[PointSize:])] {
			t.Fatal("a ciphertext half repeated across encryptions")
		}
		seen[string(b[:PointSize])], seen[string(b[PointSize:])] = true, true
		if !bytes.Equal(sk.Decrypt(c), refPoint(m)) {
			t.Fatal("rerandomized ciphertext decrypts wrongly")
		}
	}
}

func TestFreshKeysDiffer(t *testing.T) {
	a, b := mustKey(t), mustKey(t)
	if bytes.Equal(a.PublicKey(), b.PublicKey()) {
		t.Error("two generated keys share a public point")
	}
	if _, err := ParsePublicKey(a.PublicKey()[:PointSize-1]); err == nil {
		t.Error("truncated public key accepted")
	}
}

// onCurve is the fuzz oracle's independent check of one compressed half:
// the SEC 1 prefix, x < p, and x³ − 3x + b a nonzero square mod p (P-256
// has prime order, so no point has y = 0).
func onCurve(h []byte) bool {
	params := elliptic.P256().Params()
	if h[0] != 2 && h[0] != 3 {
		return false
	}
	x := new(big.Int).SetBytes(h[1:])
	if x.Cmp(params.P) >= 0 {
		return false
	}
	rhs := new(big.Int).Exp(x, big.NewInt(3), params.P)
	rhs.Sub(rhs, new(big.Int).Mul(big.NewInt(3), x))
	rhs.Add(rhs, params.B)
	rhs.Mod(rhs, params.P)
	return big.Jacobi(rhs, params.P) == 1
}

// FuzzDecodeCiphertext: arbitrary bytes never panic, and decoding succeeds
// iff the input is CiphertextSize bytes whose halves both pass onCurve.
func FuzzDecodeCiphertext(f *testing.F) {
	sk := mustKey(f)
	pk, _ := ParsePublicKey(sk.PublicKey())
	valid, err := pk.Encrypt(rand.Reader, big.NewInt(7))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(bytes.Repeat([]byte{0xFF}, CiphertextSize))
	f.Add(append([]byte{0}, make([]byte, CiphertextSize-1)...))
	f.Add(append(sk.PublicKey(), 0x02))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCiphertext(data)
		want := len(data) == CiphertextSize && onCurve(data[:PointSize]) && onCurve(data[PointSize:])
		if (err == nil) != want {
			t.Fatalf("DecodeCiphertext(%x): err = %v, independent check says valid = %v", data, err, want)
		}
		if err == nil && !bytes.Equal(c.Bytes(), data) {
			t.Fatal("decoded ciphertext does not re-encode to its input")
		}
	})
}
