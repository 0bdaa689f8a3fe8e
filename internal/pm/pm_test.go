package pm

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	"github.com/secmediation/secmediation/internal/crypto/paillier"
	rel "github.com/secmediation/secmediation/internal/relation"
)

// q is the coefficient modulus the protocol uses.
var q = ecelgamal.Order()

func testKey(t testing.TB) (*ecelgamal.PrivateKey, *ecelgamal.PublicKey) {
	t.Helper()
	k, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sk := ecelgamal.KeyFromECDH(k)
	pk, err := ecelgamal.ParsePublicKey(sk.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	return sk, pk
}

func encryptBuckets(t testing.TB, pk *ecelgamal.PublicKey, roots []*big.Int, b int) *ECBuckets {
	t.Helper()
	bs, err := BuildBuckets(roots, b, q)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := bs.EncryptEC(pk)
	if err != nil {
		t.Fatal(err)
	}
	return eb
}

// openOne masked-evaluates eb at one root with payload and opens the
// result as the client does.
func openOne(t testing.TB, sk *ecelgamal.PrivateKey, pk *ecelgamal.PublicKey, eb *ECBuckets, root *big.Int, payload []byte) ([]byte, bool) {
	t.Helper()
	aad := []byte("pm:test")
	evals, err := eb.MaskedEvalBatch(pk, []*big.Int{root}, [][]byte{payload}, aad)
	if err != nil {
		t.Fatal(err)
	}
	p, ok, err := OpenEval(sk, evals[0], aad)
	if err != nil {
		t.Fatal(err)
	}
	return p, ok
}

func TestRootOfValueDeterministicAndDistinct(t *testing.T) {
	a := RootOfValue(rel.Int(7))
	b := RootOfValue(rel.Int(7))
	c := RootOfValue(rel.Int(8))
	d := RootOfValue(rel.String_("7"))
	if a.Cmp(b) != 0 {
		t.Error("root not deterministic")
	}
	if a.Cmp(c) == 0 || a.Cmp(d) == 0 {
		t.Error("distinct values share a root")
	}
	if a.BitLen() > 8*RootBytes {
		t.Error("root exceeds RootBytes")
	}
}

func TestFromRootsHasExactRoots(t *testing.T) {
	roots := []*big.Int{RootOfValue(rel.Int(1)), RootOfValue(rel.Int(2)), RootOfValue(rel.Int(3))}
	p, err := FromRoots(roots, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degree() != 3 {
		t.Errorf("degree = %d, want 3", p.Degree())
	}
	for _, r := range roots {
		if p.Eval(r).Sign() != 0 {
			t.Errorf("P(root) != 0")
		}
	}
	if p.Eval(RootOfValue(rel.Int(99))).Sign() == 0 {
		t.Error("P(non-root) == 0")
	}
	if _, err := FromRoots(nil, q); err == nil {
		t.Error("empty root list accepted")
	}
}

// Property: FromRoots is a correct expansion — P(x) = Π(a_i − x) for
// random evaluation points.
func TestFromRootsMatchesProductForm(t *testing.T) {
	f := func(rootSeeds []uint16, xSeed uint32) bool {
		if len(rootSeeds) == 0 || len(rootSeeds) > 12 {
			return true
		}
		roots := make([]*big.Int, len(rootSeeds))
		for i, s := range rootSeeds {
			roots[i] = big.NewInt(int64(s))
		}
		p, err := FromRoots(roots, q)
		if err != nil {
			return false
		}
		x := big.NewInt(int64(xSeed))
		want := big.NewInt(1)
		for _, a := range roots {
			f := new(big.Int).Sub(a, x)
			want.Mul(want, f)
			want.Mod(want, q)
		}
		return p.Eval(x).Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The homomorphic Horner evaluation decrypts to P(x)·G, checked against
// the plaintext polynomial at degrees 1–4: EncryptEC ships c_0 … c_{L−1},
// L ciphertexts, and the evaluator supplies c_L = (−1)^L itself.
func TestEncryptedEvaluationMatchesPlain(t *testing.T) {
	sk, pk := testKey(t)
	all := []*big.Int{big.NewInt(11), big.NewInt(22), big.NewInt(33), big.NewInt(44)}
	for degree := 1; degree <= len(all); degree++ {
		roots := all[:degree]
		p, _ := FromRoots(roots, q)
		eb := encryptBuckets(t, pk, roots, 1)
		if len(eb.Polys[0]) != degree {
			t.Fatalf("degree %d: %d ciphertexts shipped, want %d", degree, len(eb.Polys[0]), degree)
		}
		lead := big.NewInt(1)
		if degree%2 == 1 {
			lead.Sub(q, lead)
		}
		if p.Coeffs[degree].Cmp(lead) != 0 {
			t.Fatalf("degree %d: leading coefficient %v, want (−1)^%d", degree, p.Coeffs[degree], degree)
		}
		for _, x := range []*big.Int{big.NewInt(11), big.NewInt(5), big.NewInt(1 << 30)} {
			coeffs := make([]*ecelgamal.Ciphertext, len(eb.Polys[0]))
			for k, c := range eb.Polys[0] {
				ct, err := ecelgamal.DecodeCiphertext(c)
				if err != nil {
					t.Fatal(err)
				}
				coeffs[k] = ct
			}
			acc := ecelgamal.AddPlain(coeffs[degree-1], new(big.Int).Mul(lead, x))
			for k := degree - 2; k >= 0; k-- {
				acc = ecelgamal.Add(ecelgamal.ScalarMul(acc, x), coeffs[k])
			}
			// Adding E(1) keeps a root's P(x)·G off the identity, which has no
			// compressed form.
			one, err := pk.Encrypt(rand.Reader, big.NewInt(1))
			if err != nil {
				t.Fatal(err)
			}
			want := new(big.Int).Add(p.Eval(x), big.NewInt(1))
			if !bytes.Equal(sk.Decrypt(ecelgamal.Add(acc, one)), ecelgamal.BaseMul(want)) {
				t.Errorf("degree %d: E-eval(%v) does not decrypt to P(%v)·G", degree, x, x)
			}
		}
	}
}

// The sign of the leading coefficient the evaluator supplies matters: a
// bucket of every degree 1–4 opens at each of its roots and at no other
// value. Taking c_L = +1 would leave every odd-degree bucket unopenable.
func TestMaskedEvalEveryDegree(t *testing.T) {
	sk, pk := testKey(t)
	aad := []byte("pm:degree")
	for degree := 1; degree <= 4; degree++ {
		var roots []*big.Int
		for i := 0; i < degree; i++ {
			roots = append(roots, RootOfValue(rel.Int(int64(10*degree+i))))
		}
		eb := encryptBuckets(t, pk, roots, 1)
		as := append(append([]*big.Int{}, roots...), RootOfValue(rel.Int(-1)))
		payloads := make([][]byte, len(as))
		for i := range payloads {
			payloads[i] = []byte{byte(i)}
		}
		evals, err := eb.MaskedEvalBatch(pk, as, payloads, aad)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range evals {
			payload, ok, err := OpenEval(sk, e, aad)
			if err != nil {
				t.Fatal(err)
			}
			if isRoot := i < degree; ok != isRoot || (ok && !bytes.Equal(payload, payloads[i])) {
				t.Errorf("degree %d: value %d opened = %v to %x, want %v", degree, i, ok, payload, isRoot)
			}
		}
	}
}

// EncryptEC refuses polynomials over any modulus but the group order;
// the Paillier form keeps its own key-modulus check.
func TestEncryptModulusMismatch(t *testing.T) {
	_, pk := testKey(t)
	bs, err := BuildBuckets([]*big.Int{big.NewInt(5)}, 1, big.NewInt(999983))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.EncryptEC(pk); err == nil {
		t.Error("modulus mismatch accepted")
	}
	small, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Encrypt(&small.PublicKey, 1); err == nil {
		t.Error("Paillier modulus mismatch accepted")
	}
}

// A masked evaluation at a root of the chooser's polynomial opens to its
// payload; at a non-root it does not open.
func TestMaskedEvalRootRevealsPayload(t *testing.T) {
	sk, pk := testKey(t)
	v1, v2 := rel.Int(100), rel.Int(200)
	eb := encryptBuckets(t, pk, []*big.Int{RootOfValue(v1), RootOfValue(v2)}, 1)

	payload, ok := openOne(t, sk, pk, eb, RootOfValue(v1), []byte("tuples-of-100"))
	if !ok || string(payload) != "tuples-of-100" {
		t.Errorf("root hit: ok=%v payload=%q", ok, payload)
	}
	if _, ok := openOne(t, sk, pk, eb, RootOfValue(rel.Int(300)), []byte("tuples-of-300")); ok {
		t.Error("non-root masked eval opened (2^-128 event)")
	}
}

// The sealed-payload codec round-trips a payload under the point's key,
// and the blob is the payload and a 16-byte GCM tag: no nonce, no root.
func TestCodecPackUnpackRoundtrip(t *testing.T) {
	aad := []byte("pm:s:R1")
	f := func(s uint32, payload []byte) bool {
		point := ecelgamal.BaseMul(big.NewInt(int64(s) + 1))
		sealed, err := SealPayload(point, payload, aad)
		if err != nil || len(sealed) != len(payload)+16 {
			return false
		}
		got, ok := OpenPayload(point, sealed, aad)
		return ok && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The sealed-payload codec rejects the wrong key, the wrong associated
// data, truncations and random bytes.
func TestCodecRejects(t *testing.T) {
	point := ecelgamal.BaseMul(big.NewInt(77))
	aad := []byte("pm:s:R1")
	sealed, err := SealPayload(point, []byte("payload"), aad)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := OpenPayload(ecelgamal.BaseMul(big.NewInt(78)), sealed, aad); ok {
		t.Error("opened under another point's key")
	}
	if _, ok := OpenPayload(point, sealed, []byte("pm:s:R2")); ok {
		t.Error("opened under other associated data")
	}
	for n := 0; n < len(sealed); n += 7 {
		if _, ok := OpenPayload(point, sealed[:n], aad); ok {
			t.Fatalf("%d-byte truncation opened", n)
		}
	}
	for i := 0; i < 50; i++ {
		junk := make([]byte, len(sealed))
		rand.Read(junk)
		if _, ok := OpenPayload(point, junk, aad); ok {
			t.Fatal("random bytes opened")
		}
	}
}

func TestNewCodecSmallKey(t *testing.T) {
	small, err := paillier.GenerateKey(rand.Reader, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCodec(&small.PublicKey); err == nil {
		t.Error("64-bit key accepted for packing")
	}
}

func TestBucketsEndToEnd(t *testing.T) {
	sk, pk := testKey(t)
	var roots []*big.Int
	for i := 0; i < 20; i++ {
		roots = append(roots, RootOfValue(rel.Int(int64(i))))
	}
	bs, err := BuildBuckets(roots, 5, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Polys) != 5 {
		t.Fatalf("buckets = %d, want 5", len(bs.Polys))
	}
	deg := bs.MaxDegree()
	for _, p := range bs.Polys {
		if p.Degree() != deg {
			t.Error("bucket degrees not uniform (loads leak)")
		}
	}
	eb, err := bs.EncryptEC(pk)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range eb.Polys {
		for _, c := range p {
			if len(c) != ecelgamal.CiphertextSize {
				t.Fatalf("coefficient ciphertext is %d bytes", len(c))
			}
		}
	}
	if payload, ok := openOne(t, sk, pk, eb, RootOfValue(rel.Int(7)), []byte("p7")); !ok || string(payload) != "p7" {
		t.Errorf("bucketed match failed: ok=%v payload=%q", ok, payload)
	}
	if _, ok := openOne(t, sk, pk, eb, RootOfValue(rel.Int(999)), []byte("p999")); ok {
		t.Error("bucketed non-match opened")
	}
}

// An empty root set is B filler buckets of load 1; zero buckets is an
// error.
func TestBuildBucketsValidation(t *testing.T) {
	bs, err := BuildBuckets(nil, 3, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Polys) != 3 || bs.MaxDegree() != 1 {
		t.Errorf("empty domain gave %d buckets of degree %d, want 3 of degree 1", len(bs.Polys), bs.MaxDegree())
	}
	if _, err := BuildBuckets([]*big.Int{big.NewInt(1)}, 0, q); err == nil {
		t.Error("0 buckets accepted")
	}
}

func TestBucketIndexStable(t *testing.T) {
	r := RootOfValue(rel.String_("key"))
	if BucketIndex(r, 7) != BucketIndex(r, 7) {
		t.Error("bucket index not deterministic")
	}
	spread := map[int]bool{}
	for i := 0; i < 100; i++ {
		spread[BucketIndex(RootOfValue(rel.Int(int64(i))), 8)] = true
	}
	if len(spread) < 4 {
		t.Errorf("bucket assignment badly skewed: %v", spread)
	}
}

// Flipping any bit of the sealed blob — ciphertext or GCM tag — makes it
// fail to open: the tag replaces the old 64-bit codec tag.
func TestUnpackRejectsTamperedTag(t *testing.T) {
	point := ecelgamal.BaseMul(big.NewInt(5))
	aad := []byte("pm:s:R1")
	sealed, err := SealPayload(point, []byte("payload"), aad)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sealed {
		tampered := bytes.Clone(sealed)
		tampered[i] ^= 0x01
		if _, ok := OpenPayload(point, tampered, aad); ok {
			t.Fatalf("tampered byte %d opened", i)
		}
	}
	if _, ok := OpenPayload(point, sealed, aad); !ok {
		t.Fatal("control blob no longer opens")
	}
}

// TestMaskedEvalBatch checks the batch path: roots open to their own
// payloads, non-roots do not open, order is preserved across the worker
// pool, and length mismatches and malformed coefficients are rejected.
func TestMaskedEvalBatch(t *testing.T) {
	sk, pk := testKey(t)
	roots := []*big.Int{RootOfValue(rel.Int(1)), RootOfValue(rel.Int(2)), RootOfValue(rel.Int(3))}
	eb := encryptBuckets(t, pk, roots, 2)
	as := []*big.Int{roots[0], RootOfValue(rel.Int(99)), roots[2], roots[1]}
	payloads := [][]byte{[]byte("p1"), []byte("p99"), []byte("p3"), []byte("p2")}
	aad := []byte("pm:batch")
	evals, err := eb.MaskedEvalBatch(pk, as, payloads, aad)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range evals {
		payload, ok, err := OpenEval(sk, e, aad)
		if err != nil {
			t.Fatal(err)
		}
		if isRoot := i != 1; ok != isRoot {
			t.Fatalf("evaluation %d opened = %v", i, ok)
		}
		if ok && !bytes.Equal(payload, payloads[i]) {
			t.Fatalf("evaluation %d opened to another value", i)
		}
	}
	if _, err := eb.MaskedEvalBatch(pk, as, payloads[:2], aad); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := &ECBuckets{Polys: [][][]byte{{eb.Polys[0][0][:ecelgamal.CiphertextSize-1]}}}
	if _, err := bad.MaskedEvalBatch(pk, as, payloads, aad); err == nil {
		t.Error("malformed coefficient accepted")
	}
	for _, empty := range []*ECBuckets{{}, {Polys: [][][]byte{{}}}} {
		if _, err := empty.MaskedEvalBatch(pk, as, payloads, aad); err == nil {
			t.Error("empty encrypted buckets accepted")
		}
	}
}

// Masked evaluations at non-roots never open: each decrypts to an
// independent random point, whose key fails the blob's GCM tag.
func TestMaskedEvalNonRootsNeverOpen(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 500
	}
	sk, pk := testKey(t)
	eb := encryptBuckets(t, pk, []*big.Int{RootOfValue(rel.Int(0))}, 1)
	as := make([]*big.Int, n)
	payloads := make([][]byte, n)
	for i := range as {
		as[i] = RootOfValue(rel.Int(int64(i + 1)))
	}
	aad := []byte("pm:nonroots")
	evals, err := eb.MaskedEvalBatch(pk, as, payloads, aad)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range evals {
		if _, ok, err := OpenEval(sk, e, aad); err != nil || ok {
			t.Fatalf("non-root %d: ok=%v err=%v", i, ok, err)
		}
	}
}

// BucketCount is 2^⌈log₂⌈n/2⌉⌉, 1 for n ≤ 2, and stops at MaxBuckets.
func TestBucketCount(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 8: 4, 9: 8, 30: 16, 45: 32,
		100: 64, 150: 128, 2 * MaxBuckets: MaxBuckets, 2*MaxBuckets + 1: MaxBuckets, 1 << 40: MaxBuckets} {
		if got := BucketCount(n); got != want {
			t.Errorf("BucketCount(%d) = %d, want %d", n, got, want)
		}
	}
}

// Encrypted buckets share one degree, written once. A receiver refuses,
// before it reads any ciphertext, a bucket count BucketCount never
// gives and a degree of 0; buckets of unequal degree have no encoding.
func TestECBucketsCodec(t *testing.T) {
	ct := bytes.Repeat([]byte{2}, ecelgamal.CiphertextSize)
	shape := func(b, degree int) ECBuckets {
		eb := ECBuckets{Polys: make([][][]byte, b)}
		for i := range eb.Polys {
			eb.Polys[i] = make([][]byte, degree)
			for k := range eb.Polys[i] {
				eb.Polys[i][k] = ct
			}
		}
		return eb
	}
	good := shape(4, 3)
	b, err := good.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 4*3*ecelgamal.CiphertextSize; len(b) != want {
		t.Errorf("4 buckets of degree 3 encode to %d bytes, want %d", len(b), want)
	}
	var back ECBuckets
	if err := back.UnmarshalBinary(b); err != nil || len(back.Polys) != 4 || len(back.Polys[3]) != 3 || !bytes.Equal(back.Polys[3][2], ct) {
		t.Errorf("round trip: %v, %d buckets", err, len(back.Polys))
	}
	encode := func(eb ECBuckets) []byte {
		b, err := eb.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, tc := range map[string]struct {
		frame []byte
		msg   string
	}{
		"no buckets":        {encode(shape(0, 0)), "not a power of two"},
		"3 buckets":         {encode(shape(3, 1)), "not a power of two"},
		"2^13 buckets":      {encode(shape(2*MaxBuckets, 1)), "not a power of two"},
		"degree 0":          {encode(shape(2, 0)), "degree 0"},
		"degree past bytes": {[]byte{2, 3}, "elements"}, // 2 buckets of degree 3, no ciphertext
	} {
		if err := new(ECBuckets).UnmarshalBinary(tc.frame); err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: decode error %v, want one about %q", name, err, tc.msg)
		}
	}
	uneven := shape(2, 2)
	uneven.Polys[1] = uneven.Polys[1][:1]
	if _, err := uneven.MarshalBinary(); err == nil {
		t.Error("buckets of degrees 2 and 1 encoded")
	}
}

// FNP bucketing ablation (§6's "evaluated efficiently"): one query's
// polynomial work — build, encrypt, and one masked evaluation per
// opposite value — for 45 roots against 30 values, at one polynomial
// (b = 1), at a fixed b = 4, and at the BucketCount a source derives.
func BenchmarkPMBucketing(b *testing.B) {
	_, pk := testKey(b)
	roots := make([]*big.Int, 45)
	for i := range roots {
		roots[i] = RootOfValue(rel.Int(int64(i)))
	}
	values := make([]*big.Int, 30)
	payloads := make([][]byte, len(values))
	for i := range values {
		values[i] = RootOfValue(rel.Int(int64(2 * i)))
	}
	for _, buckets := range []int{1, 4, BucketCount(len(roots))} {
		b.Run(fmt.Sprintf("b=%d", buckets), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bs, err := BuildBuckets(roots, buckets, q)
				if err != nil {
					b.Fatal(err)
				}
				eb, err := bs.EncryptEC(pk)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eb.MaskedEvalBatch(pk, values, payloads, []byte("pm:bench")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
