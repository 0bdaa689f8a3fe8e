package commutative

import (
	"bytes"
	"crypto/ecdh"
	"crypto/elliptic"
	"crypto/rand"
	"encoding/hex"
	"math/big"
	"testing"

	"github.com/secmediation/secmediation/internal/relation"
)

// onCurve is the reference membership test, straight from the curve
// equation: elem is 32 bytes, x < p, and x³ − 3x + b is a square mod p.
func onCurve(elem []byte) bool {
	if len(elem) != ElementSize {
		return false
	}
	params := elliptic.P256().Params()
	x := new(big.Int).SetBytes(elem)
	if x.Cmp(params.P) >= 0 {
		return false
	}
	rhs := new(big.Int).Exp(x, big.NewInt(3), params.P)
	rhs.Sub(rhs, new(big.Int).Mul(x, big.NewInt(3)))
	rhs.Add(rhs, params.B)
	rhs.Mod(rhs, params.P)
	return new(big.Int).ModSqrt(rhs, params.P) != nil
}

func fixedKey(t testing.TB, fill byte) *CurveKey {
	t.Helper()
	priv, err := ecdh.P256().NewPrivateKey(bytes.Repeat([]byte{fill}, ElementSize))
	if err != nil {
		t.Fatal(err)
	}
	return &CurveKey{priv: priv}
}

func mustApply(t testing.TB, k *CurveKey, elem []byte) []byte {
	t.Helper()
	out, err := k.Apply(elem)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Apply is x(k·P) whichever of the two points with that x one starts from.
func TestApplyMatchesScalarMult(t *testing.T) {
	curve := elliptic.P256()
	for i := 0; i < 20; i++ {
		k, err := GenerateCurveKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		elem := HashToElement("ref", []byte{byte(i)})
		got := mustApply(t, k, elem)
		for _, sign := range []byte{2, 3} {
			x, y := elliptic.UnmarshalCompressed(curve, append([]byte{sign}, elem...))
			if x == nil {
				t.Fatalf("hash %x does not decompress", elem)
			}
			wantX, _ := curve.ScalarMult(x, y, k.priv.Bytes())
			if want := wantX.FillBytes(make([]byte, ElementSize)); !bytes.Equal(got, want) {
				t.Fatalf("Apply = %x, ScalarMult from y-sign %d = %x", got, sign, want)
			}
		}
	}
}

// HashApply is Apply of HashToElement, for every label and value, and
// counts as one hash and one scalar multiplication like that pair does.
func TestHashApplyIsApplyOfHash(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 50
	}
	k, err := GenerateCurveKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		label := []string{"", "session-a", "session-b"}[i%3]
		data := relation.Int(int64(i)).Encode(nil)
		h0, e0 := opHash.Count(), opExp.Count()
		got, err := k.HashApply(label, data)
		if err != nil {
			t.Fatal(err)
		}
		if h, e := opHash.Count()-h0, opExp.Count()-e0; h != 1 || e != 1 {
			t.Fatalf("HashApply counted %d hashes and %d exps, want 1 and 1", h, e)
		}
		if want := mustApply(t, k, HashToElement(label, data)); !bytes.Equal(got, want) {
			t.Fatalf("HashApply(%q, %x) = %x, Apply(HashToElement) = %x", label, data, got, want)
		}
	}
}

// Commutativity is what the mediator's matching step (Listing 3, step 7)
// relies on; injectivity is what makes a match mean equal values.
func TestCurveKeysCommuteAndAreInjective(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 500
	}
	k1, err := GenerateCurveKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := GenerateCurveKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	single, double := map[string]bool{}, map[string]bool{}
	for i := 0; i < n; i++ {
		h := HashToElement("inj", relation.Int(int64(i)).Encode(nil))
		a := mustApply(t, k1, h)
		ab := mustApply(t, k2, a)
		ba := mustApply(t, k1, mustApply(t, k2, h))
		if !bytes.Equal(ab, ba) {
			t.Fatalf("value %d: k2(k1(h)) = %x, k1(k2(h)) = %x", i, ab, ba)
		}
		if len(ab) != ElementSize {
			t.Fatalf("element is %d bytes", len(ab))
		}
		single[string(a)], double[string(ab)] = true, true
	}
	if len(single) != n || len(double) != n {
		t.Errorf("%d values gave %d single- and %d double-layer elements", n, len(single), len(double))
	}
	if bytes.Equal(mustApply(t, k1, HashToElement("inj", nil)), mustApply(t, k2, HashToElement("inj", nil))) {
		t.Error("two random keys encrypted identically")
	}
}

func TestHashToElement(t *testing.T) {
	v := relation.String_("dortmund").Encode(nil)
	h := HashToElement("label-A", v)
	if !bytes.Equal(h, HashToElement("label-A", v)) {
		t.Error("not deterministic")
	}
	if bytes.Equal(h, HashToElement("label-B", v)) {
		t.Error("different labels produced identical hashes")
	}
	if bytes.Equal(HashToElement("l", relation.Int(1).Encode(nil)), HashToElement("l", relation.String_("1").Encode(nil))) {
		t.Error("Int(1) and String(\"1\") hash alike")
	}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		e := HashToElement("spread", relation.Int(int64(i)).Encode(nil))
		if !onCurve(e) {
			t.Fatalf("h(%d) = %x is not on the curve", i, e)
		}
		seen[string(e)] = true
	}
	if len(seen) != 200 {
		t.Errorf("%d distinct hashes of 200 values", len(seen))
	}
	// Both sources of a run must compute the same h; these pin it across
	// builds (computed independently of this package; the first two take
	// two tries, the third one).
	for _, kat := range []struct {
		label string
		data  []byte
		want  string
	}{
		{"", nil, "8606c93cc3cbf29f359ba35a6eb1e9b051294c55731b520b6aea550dce379f4d"},
		{"session-1", relation.Int(42).Encode(nil), "3ca3bdab0abb0f226145acfe2fb659c681b1fc3ef950cc80f051d3e9d714a1aa"},
		{"session-1", relation.EncodeValues([]relation.Value{relation.Int(7), relation.String_("x")}, nil), "5866afbad1ca89cbd30b65935cf44808305868754f133b3ee80f44e840e19533"},
	} {
		if got := hex.EncodeToString(HashToElement(kat.label, kat.data)); got != kat.want {
			t.Errorf("HashToElement(%q, %x) = %s, want %s", kat.label, kat.data, got, kat.want)
		}
	}
}

// malformed are the elements a hostile peer might send. All-zero is not
// among them: x = 0 is on P-256 (b is a square).
var malformed = map[string][]byte{
	"empty":     nil,
	"31 bytes":  make([]byte, 31),
	"33 bytes":  make([]byte, 33),
	"all 0xFF":  bytes.Repeat([]byte{0xFF}, ElementSize),
	"x = p":     elliptic.P256().Params().P.Bytes(),
	"off curve": new(big.Int).SetInt64(1).FillBytes(make([]byte, ElementSize)),
}

func TestApplyRejectsMalformedElements(t *testing.T) {
	k := fixedKey(t, 0x11)
	for name, elem := range malformed {
		if out, err := k.Apply(elem); err == nil {
			t.Errorf("%s: Apply(%x) = %x, want an error", name, elem, out)
		}
	}
	if _, err := k.Apply(make([]byte, ElementSize)); err != nil {
		t.Errorf("x = 0 is a curve point: %v", err)
	}
}

func FuzzApply(f *testing.F) {
	for _, elem := range malformed {
		f.Add(elem)
	}
	f.Add(make([]byte, ElementSize))
	f.Add(HashToElement("fuzz", []byte("seed")))
	k1, k2 := fixedKey(f, 0x11), fixedKey(f, 0x22)
	f.Fuzz(func(t *testing.T, elem []byte) {
		a, err := k1.Apply(elem)
		if ok := onCurve(elem); ok != (err == nil) {
			t.Fatalf("Apply(%x): err = %v, on curve = %v", elem, err, ok)
		}
		if err != nil {
			return
		}
		if ab, ba := mustApply(t, k2, a), mustApply(t, k1, mustApply(t, k2, elem)); !bytes.Equal(ab, ba) {
			t.Fatalf("Apply(%x) does not commute: %x vs %x", elem, ab, ba)
		}
	})
}
