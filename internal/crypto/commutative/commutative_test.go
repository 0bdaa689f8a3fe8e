package commutative

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"github.com/secmediation/secmediation/internal/crypto/groups"
	"github.com/secmediation/secmediation/internal/crypto/oracle"
	"github.com/secmediation/secmediation/internal/relation"
)

var (
	tgOnce sync.Once
	tg     *groups.Group
)

// testGroup returns a small safe-prime group so property tests stay fast.
func testGroup(t testing.TB) *groups.Group {
	t.Helper()
	tgOnce.Do(func() {
		var err error
		tg, err = groups.GenerateSafePrime(256, rand.Reader)
		if err != nil {
			panic(err)
		}
	})
	return tg
}

func TestEncryptDecryptRoundtrip(t *testing.T) {
	g := testGroup(t)
	k, err := GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x, err := g.RandomElement(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		c, err := k.Encrypt(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(x) != 0 {
			t.Fatalf("decrypt(encrypt(x)) != x: %v vs %v", got, x)
		}
	}
}

// Commutativity: f_e1 ∘ f_e2 = f_e2 ∘ f_e1 — the property the mediator's
// matching step (Listing 3, step 7) relies on.
func TestCommutativity(t *testing.T) {
	g := testGroup(t)
	k1, _ := GenerateKey(g, rand.Reader)
	k2, _ := GenerateKey(g, rand.Reader)
	for i := 0; i < 20; i++ {
		x, err := g.RandomElement(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		a1, _ := k1.Encrypt(x)
		a12, _ := k2.ReEncrypt(a1)
		b2, _ := k2.Encrypt(x)
		b21, _ := k1.ReEncrypt(b2)
		if a12.Cmp(b21) != 0 {
			t.Fatalf("commutativity broken: %v vs %v", a12, b21)
		}
	}
}

// Bijectivity: distinct QR inputs map to distinct ciphertexts.
func TestBijectivity(t *testing.T) {
	// Exhaustive check over a tiny group: p=23, q=11, QR = 11 elements.
	g := &groups.Group{P: big.NewInt(23), Q: big.NewInt(11)}
	k, err := newKeyForTest(g, big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	count := 0
	for x := int64(1); x < 23; x++ {
		xi := big.NewInt(x)
		if !g.IsQuadraticResidue(xi) {
			continue
		}
		c, err := k.Encrypt(xi)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsQuadraticResidue(c) {
			t.Errorf("ciphertext %v left QR", c)
		}
		if seen[c.String()] {
			t.Errorf("collision at x=%d", x)
		}
		seen[c.String()] = true
		count++
	}
	if count != 11 || len(seen) != 11 {
		t.Errorf("QR(23) image size = %d over %d inputs, want 11/11", len(seen), count)
	}
}

func TestRejectsNonResidues(t *testing.T) {
	g := &groups.Group{P: big.NewInt(23), Q: big.NewInt(11)}
	k, _ := newKeyForTest(g, big.NewInt(3))
	// 5 is a non-residue mod 23.
	if _, err := k.Encrypt(big.NewInt(5)); err == nil {
		t.Error("Encrypt accepted a non-residue")
	}
	if _, err := k.Decrypt(big.NewInt(5)); err == nil {
		t.Error("Decrypt accepted a non-residue")
	}
	if _, err := k.Encrypt(big.NewInt(0)); err == nil {
		t.Error("Encrypt accepted zero")
	}
}

func TestKeysDiffer(t *testing.T) {
	g := testGroup(t)
	k1, _ := GenerateKey(g, rand.Reader)
	k2, _ := GenerateKey(g, rand.Reader)
	x, _ := g.RandomElement(rand.Reader)
	c1, _ := k1.Encrypt(x)
	c2, _ := k2.Encrypt(x)
	if c1.Cmp(c2) == 0 {
		t.Error("two random keys encrypted identically (astronomically unlikely)")
	}
}

func TestZeroExponentRejected(t *testing.T) {
	g := testGroup(t)
	if _, err := newKeyForTest(g, big.NewInt(0)); err == nil {
		t.Error("zero exponent accepted")
	}
}

// End-to-end with the ideal-hash oracle: equal values match after double
// encryption regardless of key order; distinct values do not.
func TestDoubleEncryptionMatching(t *testing.T) {
	g := testGroup(t)
	o := oracle.New(g, "test-run")
	k1, _ := GenerateKey(g, rand.Reader)
	k2, _ := GenerateKey(g, rand.Reader)

	enc2 := func(k1st, k2nd *Key, v relation.Value) *big.Int {
		h := o.HashValue(v)
		c1, err := k1st.Encrypt(h)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := k2nd.ReEncrypt(c1)
		if err != nil {
			t.Fatal(err)
		}
		return c2
	}
	a := relation.Int(42)
	b := relation.Int(43)
	if enc2(k1, k2, a).Cmp(enc2(k2, k1, a)) != 0 {
		t.Error("equal values do not match after double encryption")
	}
	if enc2(k1, k2, a).Cmp(enc2(k2, k1, b)) == 0 {
		t.Error("distinct values match after double encryption")
	}
	// Cross-kind: Int(1) vs String("1") must hash differently.
	if o.HashValue(relation.Int(1)).Cmp(o.HashValue(relation.String_("1"))) == 0 {
		t.Error("oracle conflates Int(1) and String(\"1\")")
	}
}

func TestOracleDeterminismAndRange(t *testing.T) {
	g := testGroup(t)
	o := oracle.New(g, "label-A")
	o2 := oracle.New(g, "label-B")
	v := relation.String_("dortmund")
	h1 := o.HashValue(v)
	h2 := o.HashValue(v)
	if h1.Cmp(h2) != 0 {
		t.Error("oracle not deterministic")
	}
	if !g.IsQuadraticResidue(h1) {
		t.Error("oracle output not in QR(p)")
	}
	if h1.Cmp(o2.HashValue(v)) == 0 {
		t.Error("different labels produced identical hashes")
	}
	// Distinct values spread.
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[o.HashValue(relation.Int(int64(i))).String()] = true
	}
	if len(seen) != 100 {
		t.Errorf("oracle collisions: %d distinct of 100", len(seen))
	}
}

func TestReEncryptRangeCheck(t *testing.T) {
	g := testGroup(t)
	k, err := GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*big.Int{nil, big.NewInt(0), new(big.Int).Neg(big.NewInt(3)), new(big.Int).Set(g.P)} {
		if _, err := k.ReEncrypt(bad); err == nil {
			t.Fatalf("ReEncrypt accepted out-of-range input %v", bad)
		}
	}
}

// TestShortExponentKey checks the production path end-to-end on a real
// RFC 3526 group: GenerateKey draws a short exponent there, and the key
// must still round-trip and satisfy the exact-bit-length policy.
func TestShortExponentKey(t *testing.T) {
	g := groups.MODP1536()
	ks, err := GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ks.enc.Bits(), g.ShortExponentBits(); got != want {
		t.Fatalf("short key exponent bit length = %d, want %d", got, want)
	}
	x, err := g.RandomElement(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ks.Encrypt(x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ks.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cmp(x) != 0 {
		t.Fatal("short-exponent key did not round-trip")
	}
}
