package modexp

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// testModuli covers the word-count range the ciphers use: a tiny 1-word
// prime (the commutative test group p = 23), a 256-bit safe prime, and a
// multi-word odd composite (Paillier-style n²-shaped modulus).
func testModuli(t *testing.T) []*big.Int {
	t.Helper()
	p256, ok := new(big.Int).SetString(
		"ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74", 16)
	if !ok {
		t.Fatal("bad hex constant")
	}
	if p256.Bit(0) == 0 {
		p256.Add(p256, big.NewInt(1))
	}
	odd1024 := new(big.Int).Lsh(big.NewInt(1), 1023)
	odd1024.Add(odd1024, big.NewInt(982451653)) // odd offset keeps it odd
	return []*big.Int{big.NewInt(23), p256, odd1024}
}

// bothEngines builds the two engines for one exponent — the math/big.Exp
// one and the constant-time Montgomery ladder — so every edge case below
// exercises montMulCore against math/big.Exp.
func bothEngines(t *testing.T, mod *Modulus, e *big.Int) map[string]*Engine {
	t.Helper()
	vt, err := NewEngine(mod, e)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewEngineConstantTime(mod, e, 0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Engine{"variable-time": vt, "constant-time": ct}
}

func TestNewModulusRejectsBadInput(t *testing.T) {
	for _, bad := range []*big.Int{nil, big.NewInt(0), big.NewInt(1), big.NewInt(-7), big.NewInt(100)} {
		if _, err := NewModulus(bad); err == nil {
			t.Errorf("NewModulus(%v): want error", bad)
		}
	}
}

func TestNewEngineRejectsBadExponent(t *testing.T) {
	mod, err := NewModulus(big.NewInt(23))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*big.Int{nil, big.NewInt(0), big.NewInt(-3)} {
		if _, err := NewEngine(mod, bad); err == nil {
			t.Errorf("NewEngine(e=%v): want error", bad)
		}
	}
	if _, err := NewEngine(nil, big.NewInt(3)); err == nil {
		t.Error("NewEngine(nil modulus): want error")
	}
}

// TestAgainstBigIntExp is the core property test: for random moduli sizes,
// random exponents of many bit lengths, and random bases (plus the edge
// bases 0, 1, n−1), both engines must agree with big.Int.Exp.
func TestAgainstBigIntExp(t *testing.T) {
	for _, n := range testModuli(t) {
		mod, err := NewModulus(n)
		if err != nil {
			t.Fatal(err)
		}
		expBits := []int{1, 2, 3, 7, 8, 17, 64, 65, 200, 256}
		for _, bits := range expBits {
			for trial := 0; trial < 4; trial++ {
				e, err := rand.Int(rand.Reader, new(big.Int).Lsh(bigOne, uint(bits)))
				if err != nil {
					t.Fatal(err)
				}
				e.SetBit(e, bits-1, 1) // force the requested bit length
				if e.Sign() == 0 {
					e.SetInt64(1)
				}
				bases := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(n, bigOne)}
				for i := 0; i < 3; i++ {
					x, err := rand.Int(rand.Reader, n)
					if err != nil {
						t.Fatal(err)
					}
					bases = append(bases, x)
				}
				for name, en := range bothEngines(t, mod, e) {
					for _, x := range bases {
						got := en.Exp(x)
						want := new(big.Int).Exp(x, e, n)
						if got.Cmp(want) != 0 {
							t.Fatalf("%s n=%d bits, e=%v (%d bits), x=%v: engine=%v want=%v",
								name, n.BitLen(), e, e.BitLen(), x, got, want)
						}
					}
				}
			}
		}
	}
}

// TestEdgeExponents pins the exponent edge cases: e = 1, pure powers of
// two (one set digit, then only zero digits), all-ones exponents (no
// zero digits), and exponents with long interior zero runs.
func TestEdgeExponents(t *testing.T) {
	n := testModuli(t)[1]
	mod, err := NewModulus(n)
	if err != nil {
		t.Fatal(err)
	}
	exps := []*big.Int{
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(3),
		new(big.Int).Lsh(bigOne, 64),  // 2^64: one set bit, then 64 squarings
		new(big.Int).Lsh(bigOne, 255), // 2^255
		new(big.Int).Sub(new(big.Int).Lsh(bigOne, 160), bigOne), // all ones
		new(big.Int).Add(new(big.Int).Lsh(bigOne, 200), bigOne), // 1...0^199...1
	}
	x := big.NewInt(1234567891011)
	for _, e := range exps {
		for name, en := range bothEngines(t, mod, e) {
			got := en.Exp(x)
			want := new(big.Int).Exp(x, e, n)
			if got.Cmp(want) != 0 {
				t.Errorf("%s e=%v: engine=%v want=%v", name, e, got, want)
			}
		}
	}
}

// TestExpReducesBase checks out-of-range and negative bases are reduced
// into the group first, matching big.Int.Exp semantics.
func TestExpReducesBase(t *testing.T) {
	n := testModuli(t)[1]
	mod, err := NewModulus(n)
	if err != nil {
		t.Fatal(err)
	}
	e := big.NewInt(65537)
	for name, en := range bothEngines(t, mod, e) {
		for _, x := range []*big.Int{
			new(big.Int).Add(n, big.NewInt(5)),
			new(big.Int).Neg(big.NewInt(42)),
			new(big.Int).Mul(n, n),
		} {
			got := en.Exp(x)
			want := new(big.Int).Exp(new(big.Int).Mod(x, n), e, n)
			if got.Cmp(want) != 0 {
				t.Errorf("%s x=%v: engine=%v want=%v", name, x, got, want)
			}
		}
	}
}
