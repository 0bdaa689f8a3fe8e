package modexp

import (
	"crypto/rand"
	"math/big"
	"testing"

	"github.com/secmediation/secmediation/internal/parallel"
)

// TestExpConstantTimeAgainstBigExp is the property test the issue asks
// for: across every test modulus, the edge exponents (0, 1, 2^k−1,
// top-bit-only 2^k) and random exponents of many lengths, the
// constant-time ladder must be bit-identical to math/big.Exp.
func TestExpConstantTimeAgainstBigExp(t *testing.T) {
	for _, n := range testModuli(t) {
		mod, err := NewModulus(n)
		if err != nil {
			t.Fatal(err)
		}
		var exps []*big.Int
		exps = append(exps, big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3))
		for _, k := range []uint{7, 8, 63, 64, 65, 224, 256, 1024} {
			exps = append(exps,
				new(big.Int).Sub(new(big.Int).Lsh(bigOne, k), bigOne), // 2^k − 1: all ones
				new(big.Int).Lsh(bigOne, k),                           // 2^k: top bit only
			)
		}
		for _, bits := range []int{5, 32, 200, 700} {
			e, err := rand.Int(rand.Reader, new(big.Int).Lsh(bigOne, uint(bits)))
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, e)
		}
		for _, e := range exps {
			bases := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(n, bigOne)}
			for i := 0; i < 2; i++ {
				x, err := rand.Int(rand.Reader, n)
				if err != nil {
					t.Fatal(err)
				}
				bases = append(bases, x)
			}
			for _, x := range bases {
				got := ExpConstantTime(mod, x, e, 0)
				want := new(big.Int).Exp(x, e, n)
				if got.Cmp(want) != 0 {
					t.Fatalf("n=%d bits, e=%v (%d bits), x=%v: ct=%v want=%v",
						n.BitLen(), e, e.BitLen(), x, got, want)
				}
			}
		}
	}
}

// TestExpConstantTimePadding checks the result is invariant under the
// public length bound: padding an exponent to any bound ≥ its length
// changes the trajectory, never the value.
func TestExpConstantTimePadding(t *testing.T) {
	n := testModuli(t)[1]
	mod, err := NewModulus(n)
	if err != nil {
		t.Fatal(err)
	}
	e := big.NewInt(0x1d3f5)
	x := big.NewInt(987654321)
	want := new(big.Int).Exp(x, e, n)
	for _, bits := range []int{0, e.BitLen(), e.BitLen() + 1, 64, 224, 256, 500} {
		if got := ExpConstantTime(mod, x, e, bits); got.Cmp(want) != 0 {
			t.Errorf("bits=%d: ct=%v want=%v", bits, got, want)
		}
	}
}

// TestExpConstantTimeNegativeExponentPanics pins the contract: the
// ladder refuses negative exponents loudly.
func TestExpConstantTimeNegativeExponentPanics(t *testing.T) {
	mod, err := NewModulus(big.NewInt(23))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative exponent did not panic")
		}
	}()
	ExpConstantTime(mod, big.NewInt(2), big.NewInt(-1), 0)
}

// TestConstantTimeEngine checks the engine wrapper: Exp routes to the
// ladder, the padding bound is honored, and concurrent exponentiation
// over a shared constant-time engine stays correct and race-free.
func TestConstantTimeEngine(t *testing.T) {
	n := testModuli(t)[1]
	mod, err := NewModulus(n)
	if err != nil {
		t.Fatal(err)
	}
	e := big.NewInt(0xfedcba987654321)
	en, err := NewEngineConstantTime(mod, e, 224)
	if err != nil {
		t.Fatal(err)
	}
	if en.Bits() != e.BitLen() {
		t.Errorf("Bits() = %d, want %d", en.Bits(), e.BitLen())
	}
	xs := make([]*big.Int, 17)
	for i := range xs {
		if xs[i], err = rand.Int(rand.Reader, n); err != nil {
			t.Fatal(err)
		}
	}
	got, err := parallel.Map(len(xs), 4, func(i int) (*big.Int, error) {
		return en.Exp(xs[i]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want := new(big.Int).Exp(x, e, n)
		if got[i].Cmp(want) != 0 {
			t.Fatalf("concurrent index %d: got %v want %v", i, got[i], want)
		}
	}

	// The method form must agree on a variable-time engine too.
	vt, err := NewEngine(mod, e)
	if err != nil {
		t.Fatal(err)
	}
	x := xs[0]
	if ct, want := vt.ExpConstantTime(x), new(big.Int).Exp(x, e, n); ct.Cmp(want) != 0 {
		t.Fatalf("ExpConstantTime on variable-time engine: %v want %v", ct, want)
	}
}

func TestNewEngineConstantTimeRejectsBadInput(t *testing.T) {
	mod, err := NewModulus(big.NewInt(23))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*big.Int{nil, big.NewInt(0), big.NewInt(-3)} {
		if _, err := NewEngineConstantTime(mod, bad, 0); err == nil {
			t.Errorf("NewEngineConstantTime(e=%v): want error", bad)
		}
	}
	if _, err := NewEngineConstantTime(nil, big.NewInt(3), 0); err == nil {
		t.Error("NewEngineConstantTime(nil modulus): want error")
	}
}

// TestCTWordHelpers pins the branchless primitives the ladder rests on.
func TestCTWordHelpers(t *testing.T) {
	if ctMask(0) != 0 || ctMask(1) != ^uint64(0) {
		t.Error("ctMask broken")
	}
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 8; b++ {
			want := uint64(0)
			if a == b {
				want = ^uint64(0)
			}
			if got := ctEqMask(a, b); got != want {
				t.Errorf("ctEqMask(%d, %d) = %#x, want %#x", a, b, got, want)
			}
		}
	}
	if got := ctEqMask(^uint64(0), ^uint64(0)); got != ^uint64(0) {
		t.Errorf("ctEqMask(max, max) = %#x", got)
	}
	z := []uint64{1, 2, 3}
	ctSelectWords(z, []uint64{7, 8, 9}, 0)
	if z[0] != 1 || z[2] != 3 {
		t.Error("ctSelectWords with zero mask modified z")
	}
	ctSelectWords(z, []uint64{7, 8, 9}, ^uint64(0))
	if z[0] != 7 || z[1] != 8 || z[2] != 9 {
		t.Error("ctSelectWords with full mask did not select")
	}
}

// FuzzExpConstantTime cross-checks the ladder against math/big.Exp on
// fuzzer-chosen (base, exponent, pad) triples over a fixed 256-bit
// modulus.
func FuzzExpConstantTime(f *testing.F) {
	f.Add([]byte{2}, []byte{3}, uint16(0))
	f.Add([]byte{0xff, 0xff}, []byte{0xff, 0xff, 0xff}, uint16(64))
	f.Add([]byte{1}, []byte{}, uint16(7))
	n, _ := new(big.Int).SetString(
		"ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc75", 16)
	mod, err := NewModulus(n)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, xb, eb []byte, pad uint16) {
		if len(eb) > 64 {
			eb = eb[:64] // keep ladder length bounded
		}
		x := new(big.Int).SetBytes(xb)
		e := new(big.Int).SetBytes(eb)
		got := ExpConstantTime(mod, x, e, int(pad%1024))
		want := new(big.Int).Exp(x, e, n)
		if got.Cmp(want) != 0 {
			t.Fatalf("x=%v e=%v pad=%d: ct=%v want=%v", x, e, pad, got, want)
		}
	})
}

// BenchmarkCTvsVariableLadder compares the constant-time ladder to the
// variable-time math/big.Exp engine on the commutative hot-path shape
// (256-bit short exponent); `go run ./bench` reports the same two costs
// as modexp.exp_ct_ns and modexp.exp_short_ns.
func BenchmarkCTvsVariableLadder(b *testing.B) {
	n := new(big.Int).Lsh(bigOne, 1023)
	n.Add(n, big.NewInt(982451653))
	mod, err := NewModulus(n)
	if err != nil {
		b.Fatal(err)
	}
	e, err := rand.Int(rand.Reader, new(big.Int).Lsh(bigOne, 256))
	if err != nil {
		b.Fatal(err)
	}
	e.SetBit(e, 255, 1)
	x, err := rand.Int(rand.Reader, n)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("variable", func(b *testing.B) {
		en, err := NewEngine(mod, e)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			en.Exp(x)
		}
	})
	b.Run("constant-time", func(b *testing.B) {
		en, err := NewEngineConstantTime(mod, e, 256)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			en.Exp(x)
		}
	})
}
