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
	if k1.Group() != g {
		t.Error("Group accessor wrong")
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

func TestEncryptUncheckedMatchesEncrypt(t *testing.T) {
	g := testGroup(t)
	k, err := GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		x, err := g.RandomElement(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		want, err := k.Encrypt(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.EncryptUnchecked(x); got.Cmp(want) != 0 {
			t.Fatal("EncryptUnchecked diverges from Encrypt on a QR element")
		}
	}
}

func TestEncryptBatch(t *testing.T) {
	g := testGroup(t)
	k, err := GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*big.Int, 33)
	for i := range xs {
		if xs[i], err = g.RandomElement(rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := k.EncryptBatch(xs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range xs {
			want, _ := k.Encrypt(xs[i])
			if got[i].Cmp(want) != 0 {
				t.Fatalf("workers=%d: batch element %d mismatch", workers, i)
			}
		}
	}
	// A non-residue anywhere in the batch must fail the whole batch.
	bad := append([]*big.Int(nil), xs...)
	bad[17] = findNonResidue(t, g)
	if _, err := k.EncryptBatch(bad, 4); err == nil {
		t.Fatal("batch accepted a non-residue")
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

// findNonResidue searches small integers for a quadratic non-residue of
// the test group (half of Z_p^* qualifies, so this terminates fast).
func findNonResidue(t *testing.T, g *groups.Group) *big.Int {
	t.Helper()
	for i := int64(2); i < 1000; i++ {
		x := big.NewInt(i)
		if !g.IsQuadraticResidue(x) {
			return x
		}
	}
	t.Fatal("no small non-residue found")
	return nil
}

// TestReEncryptBatch mirrors TestEncryptBatch for the second-layer batch
// path: order preservation across worker counts, agreement with the
// scalar ReEncrypt, and whole-batch failure on a range violation.
func TestReEncryptBatch(t *testing.T) {
	g := testGroup(t)
	k1, _ := GenerateKey(g, rand.Reader)
	k2, _ := GenerateKey(g, rand.Reader)
	cs := make([]*big.Int, 33)
	for i := range cs {
		x, err := g.RandomElement(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if cs[i], err = k1.Encrypt(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4, 0} {
		got, err := k2.ReEncryptBatch(cs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range cs {
			want, _ := k2.ReEncrypt(cs[i])
			if got[i].Cmp(want) != 0 {
				t.Fatalf("workers=%d: batch element %d mismatch", workers, i)
			}
		}
	}
	bad := append([]*big.Int(nil), cs...)
	bad[11] = new(big.Int).Set(g.P)
	if _, err := k2.ReEncryptBatch(bad, 4); err == nil {
		t.Fatal("batch accepted an out-of-range ciphertext")
	}
}

// TestDecryptBatch mirrors TestEncryptBatch for the decryption batch
// path, including whole-batch failure on a non-residue.
func TestDecryptBatch(t *testing.T) {
	g := testGroup(t)
	k, _ := GenerateKey(g, rand.Reader)
	xs := make([]*big.Int, 33)
	cs := make([]*big.Int, len(xs))
	for i := range xs {
		x, err := g.RandomElement(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = x
		if cs[i], err = k.Encrypt(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4, 0} {
		got, err := k.DecryptBatch(cs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range xs {
			if got[i].Cmp(xs[i]) != 0 {
				t.Fatalf("workers=%d: batch element %d did not round-trip", workers, i)
			}
		}
	}
	bad := append([]*big.Int(nil), cs...)
	bad[7] = findNonResidue(t, g)
	if _, err := k.DecryptBatch(bad, 4); err == nil {
		t.Fatal("batch accepted a non-residue ciphertext")
	}
}

// TestShortExponentKey checks the production path end-to-end on a real
// RFC 3526 group: GenerateKey draws a short exponent there, and the key
// must still round-trip, commute with a full-exponent key, and satisfy
// the exact-bit-length policy.
func TestShortExponentKey(t *testing.T) {
	g := groups.MODP1536()
	ks, err := GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ks.enc.Bits(), g.ShortExponentBits(); got != want {
		t.Fatalf("short key exponent bit length = %d, want %d", got, want)
	}
	kf, err := GenerateKeyFullExponent(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if kf.enc.Bits() <= g.ShortExponentBits() {
		t.Logf("full-exponent key drew %d bits (possible but unlikely)", kf.enc.Bits())
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
	// Commutativity across short and full keys.
	a, _ := ks.Encrypt(x)
	ab, _ := kf.ReEncrypt(a)
	b, _ := kf.Encrypt(x)
	ba, _ := ks.ReEncrypt(b)
	if ab.Cmp(ba) != 0 {
		t.Fatal("short and full exponent keys do not commute")
	}
}

// TestGenerateKeyConstantTime checks the constant-time key end to end:
// roundtrip, commutation with a variable-time key, and (on a key built
// from a known exponent) exact agreement with the textbook
// f_e(x) = x^e mod p — the ladder change must be invisible in the
// transcript.
func TestGenerateKeyConstantTime(t *testing.T) {
	g := testGroup(t)
	ct, err := GenerateKeyConstantTime(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	e, err := g.RandomShortExponent(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	known, err := keyFromExponent(g, e, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x, err := g.RandomElement(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := known.EncryptUnchecked(x), new(big.Int).Exp(x, e, g.P); got.Cmp(want) != 0 {
			t.Fatalf("ct encrypt diverges from x^e mod p: %v vs %v", got, want)
		}
		c, err := ct.Encrypt(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ct.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if back.Cmp(x) != 0 {
			t.Fatalf("ct roundtrip: %v vs %v", back, x)
		}
		// Commutation across ladder implementations.
		ab, err := vt.ReEncrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := vt.Encrypt(x)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := ct.ReEncrypt(c2)
		if err != nil {
			t.Fatal(err)
		}
		if ab.Cmp(ba) != 0 {
			t.Fatalf("ct/vt keys do not commute: %v vs %v", ab, ba)
		}
	}
	// Batch path shares the constant-time engine across workers.
	xs := make([]*big.Int, 9)
	for i := range xs {
		var err error
		if xs[i], err = g.RandomElement(rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := ct.EncryptBatch(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ct.DecryptBatch(enc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if dec[i].Cmp(xs[i]) != 0 {
			t.Fatalf("batch roundtrip index %d: %v vs %v", i, dec[i], xs[i])
		}
	}
}
