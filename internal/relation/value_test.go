package relation

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomValue produces an arbitrary valid Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Int(r.Int63() - r.Int63())
	case 1:
		n := r.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return String_(string(b))
	case 2:
		return Float(r.NormFloat64() * 1e6)
	default:
		return Bool(r.Intn(2) == 0)
	}
}

// quickValue adapts randomValue to testing/quick generation.
type quickValue struct{ V Value }

func (quickValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickValue{V: randomValue(r)})
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInt: "INT", KindString: "TEXT", KindFloat: "FLOAT",
		KindBool: "BOOL", KindInvalid: "INVALID",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"INT", KindInt}, {"integer", KindInt}, {" Bigint ", KindInt},
		{"TEXT", KindString}, {"varchar", KindString}, {"STRING", KindString},
		{"float", KindFloat}, {"DOUBLE", KindFloat}, {"real", KindFloat},
		{"bool", KindBool}, {"BOOLEAN", KindBool},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) succeeded, want error")
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 {
		t.Error("Int accessor")
	}
	if String_("x").AsString() != "x" {
		t.Error("String accessor")
	}
	if Float(1.5).AsFloat() != 1.5 {
		t.Error("Float accessor")
	}
	if !Bool(true).AsBool() {
		t.Error("Bool accessor")
	}
	if (Value{}).Valid() {
		t.Error("zero value reports Valid")
	}
	defer func() {
		if recover() == nil {
			t.Error("AsInt on string did not panic")
		}
	}()
	_ = String_("x").AsInt()
}

func TestValueEqualKinds(t *testing.T) {
	if Int(1).Equal(Float(1)) {
		t.Error("Int(1) equals Float(1); cross-kind equality must be false")
	}
	if Int(0).Equal(Bool(false)) {
		t.Error("cross-kind equality must be false")
	}
	if !Int(42).Equal(Int(42)) || Int(42).Equal(Int(43)) {
		t.Error("Int equality broken")
	}
}

func TestValueCompare(t *testing.T) {
	for _, tc := range []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{String_("a"), String_("b"), -1},
		{String_("b"), String_("b"), 0},
		{Float(1.5), Float(2.5), -1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Float(math.NaN()), Float(math.NaN()), 0},
		{Float(math.NaN()), Float(-1e300), -1},
		{Float(0), Float(math.NaN()), 1},
	} {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("cross-kind Compare did not panic")
		}
	}()
	Int(1).Compare(String_("1"))
}

func TestParseStringRoundtrip(t *testing.T) {
	for _, v := range []Value{Int(-12345), String_("hello, world"), Float(3.25), Bool(true), Bool(false)} {
		got, err := Parse(v.Kind(), v.String())
		if err != nil {
			t.Fatalf("Parse(%v, %q): %v", v.Kind(), v.String(), err)
		}
		if !got.Equal(v) {
			t.Errorf("Parse/String roundtrip: got %v, want %v", got, v)
		}
	}
	if _, err := Parse(KindInt, "not-an-int"); err == nil {
		t.Error("Parse(INT, garbage) succeeded")
	}
	if _, err := Parse(KindInvalid, "x"); err == nil {
		t.Error("Parse into invalid kind succeeded")
	}
}

// Property: Encode is injective — equal values encode equal, distinct
// values encode distinct.
func TestEncodeInjective(t *testing.T) {
	f := func(a, b quickValue) bool {
		ea := a.V.Encode(nil)
		eb := b.V.Encode(nil)
		if a.V.Equal(b.V) {
			return bytes.Equal(ea, eb)
		}
		return !bytes.Equal(ea, eb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: DecodeValue inverts Encode and consumes exactly the encoding.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	f := func(a quickValue) bool {
		enc := a.V.Encode(nil)
		got, n, err := DecodeValue(enc)
		return err == nil && n == len(enc) && got.Equal(a.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeValueErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(KindInt)},                // truncated int
		{byte(KindString), 0, 0, 0, 5}, // length beyond input
		{byte(KindFloat), 1, 2},        // truncated float
		{byte(KindBool)},               // truncated bool
		{99},                           // bad tag
	}
	for _, c := range cases {
		if _, _, err := DecodeValue(c); err == nil {
			t.Errorf("DecodeValue(% x) succeeded, want error", c)
		}
	}
}

// Property: Compare is antisymmetric and consistent with Equal.
func TestCompareConsistency(t *testing.T) {
	f := func(a, b quickValue) bool {
		if a.V.Kind() != b.V.Kind() {
			return true // Compare requires same kind
		}
		c1 := a.V.Compare(b.V)
		c2 := b.V.Compare(a.V)
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == a.V.Equal(b.V) || a.V.Kind() == KindFloat // NaN==NaN in Compare but not bit-equal path is fine
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Rows hold their values inline, so every decoded row and joined tuple
// pays a Value's size per column: the non-TEXT kinds share one payload
// word, and a FLOAT keeps its exact bits (−0 and NaN payloads survive).
func TestValueIsFourWords(t *testing.T) {
	if size := reflect.TypeOf(Value{}).Size(); size != 32 {
		t.Errorf("a Value is %d bytes, want 32", size)
	}
	negZero := Float(math.Copysign(0, -1))
	if math.Signbit(negZero.AsFloat()) != true || !negZero.Equal(Float(0)) || negZero.sameBits(Float(0)) {
		t.Errorf("−0 lost its sign or its equality to +0")
	}
	if nan := Float(math.NaN()); nan.Equal(nan) || !nan.sameBits(nan) {
		t.Errorf("NaN equals itself or differs from its own bits")
	}
	if Bool(true).Equal(Bool(false)) || Int(1).Equal(Bool(true)) || !Bool(true).AsBool() {
		t.Errorf("BOOL payload confused")
	}
}
