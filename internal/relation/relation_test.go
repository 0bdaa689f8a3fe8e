package relation

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) Schema {
	t.Helper()
	return MustSchema("R",
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindString},
		Column{Name: "score", Kind: KindFloat},
	)
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("R", Column{Name: "", Kind: KindInt}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewSchema("R", Column{Name: "a", Kind: KindInvalid}); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := NewSchema("R", Column{Name: "a", Kind: KindInt}, Column{Name: "a", Kind: KindInt}); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestSchemaIndexOf(t *testing.T) {
	s := testSchema(t)
	if i := s.IndexOf("name"); i != 1 {
		t.Errorf("IndexOf(name) = %d, want 1", i)
	}
	if i := s.IndexOf("R.name"); i != 1 {
		t.Errorf("IndexOf(R.name) = %d, want 1", i)
	}
	if i := s.IndexOf("S.name"); i != -1 {
		t.Errorf("IndexOf(S.name) = %d, want -1", i)
	}
	if i := s.IndexOf("missing"); i != -1 {
		t.Errorf("IndexOf(missing) = %d, want -1", i)
	}
	q := s.Qualify()
	if i := q.IndexOf("name"); i != 1 {
		t.Errorf("qualified IndexOf(name) = %d, want 1", i)
	}
	if i := q.IndexOf("R.name"); i != 1 {
		t.Errorf("qualified IndexOf(R.name) = %d, want 1", i)
	}
}

func TestSchemaProjectAndConcat(t *testing.T) {
	s := testSchema(t)
	p, err := s.Project("score", "id")
	if err != nil {
		t.Fatal(err)
	}
	if p.Arity() != 2 || p.Columns[0].Name != "score" || p.Columns[1].Name != "id" {
		t.Errorf("Project wrong: %v", p)
	}
	if _, err := s.Project("nope"); err == nil {
		t.Error("Project(nope) succeeded")
	}

	o := MustSchema("S", Column{Name: "id", Kind: KindInt}, Column{Name: "city", Kind: KindString})
	c, err := s.Concat(o)
	if err != nil {
		t.Fatal(err)
	}
	// id collides, so both sides must be qualified.
	if c.IndexOf("R.id") < 0 || c.IndexOf("S.id") < 0 {
		t.Errorf("Concat did not qualify colliding columns: %v", c)
	}
	if c.Arity() != 5 {
		t.Errorf("Concat arity = %d, want 5", c.Arity())
	}
}

func TestSchemaKindOfAndString(t *testing.T) {
	s := testSchema(t)
	k, err := s.KindOf("score")
	if err != nil || k != KindFloat {
		t.Errorf("KindOf(score) = %v, %v", k, err)
	}
	if _, err := s.KindOf("zzz"); err == nil {
		t.Error("KindOf(zzz) succeeded")
	}
	if got := s.String(); got != "R(id INT, name TEXT, score FLOAT)" {
		t.Errorf("Schema.String() = %q", got)
	}
}

func TestRelationAppendValidation(t *testing.T) {
	r := New(testSchema(t))
	if err := r.Append(Tuple{Int(1), String_("a")}); err == nil {
		t.Error("short tuple accepted")
	}
	if err := r.Append(Tuple{Int(1), Int(2), Float(3)}); err == nil {
		t.Error("wrong-kind tuple accepted")
	}
	if err := r.Append(Tuple{Int(1), String_("a"), Float(1.5)}); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestActiveDomain(t *testing.T) {
	s := MustSchema("R", Column{Name: "k", Kind: KindInt}, Column{Name: "v", Kind: KindString})
	r := MustFromTuples(s,
		Tuple{Int(3), String_("c")},
		Tuple{Int(1), String_("a")},
		Tuple{Int(3), String_("c2")},
		Tuple{Int(2), String_("b")},
		Tuple{Int(1), String_("a2")},
	)
	dom, err := r.ActiveDomain("k")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3}
	if len(dom) != len(want) {
		t.Fatalf("ActiveDomain size = %d, want %d", len(dom), len(want))
	}
	for i, w := range want {
		if dom[i].AsInt() != w {
			t.Errorf("dom[%d] = %v, want %d", i, dom[i], w)
		}
	}
	if _, err := r.ActiveDomain("nope"); err == nil {
		t.Error("ActiveDomain(nope) succeeded")
	}
}

// A FLOAT column's active domain keeps every NaN row, as Value.Equal
// never equates two NaNs, and merges −0 with +0; an INT column's sorts
// and dedupes as its int64 keys do.
func TestActiveDomainEdges(t *testing.T) {
	fs := MustSchema("F", Column{Name: "x", Kind: KindFloat})
	nan := math.NaN()
	fr := MustFromTuples(fs, Tuple{Float(1)}, Tuple{Float(nan)}, Tuple{Float(math.Copysign(0, -1))},
		Tuple{Float(0)}, Tuple{Float(nan)}, Tuple{Float(1)})
	dom, err := fr.ActiveDomain("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(dom) != 4 || !math.IsNaN(dom[0].AsFloat()) || !math.IsNaN(dom[1].AsFloat()) ||
		dom[2].AsFloat() != 0 || dom[3].AsFloat() != 1 {
		t.Errorf("FLOAT active domain = %v, want [NaN NaN 0 1]", dom)
	}
	is := MustSchema("I", Column{Name: "k", Kind: KindInt})
	rng := rand.New(rand.NewSource(1))
	ir := New(is)
	want := map[int64]bool{}
	for i := 0; i < 500; i++ {
		k := rng.Int63n(200) - 100
		if i%50 == 0 {
			k = [...]int64{math.MinInt64, math.MaxInt64}[i/50%2]
		}
		want[k] = true
		ir.MustAppend(Tuple{Int(k)})
	}
	dom, err = ir.ActiveDomain("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(dom) != len(want) {
		t.Fatalf("INT active domain has %d values, want %d", len(dom), len(want))
	}
	for i, v := range dom {
		if !want[v.AsInt()] || i > 0 && dom[i-1].AsInt() >= v.AsInt() {
			t.Fatalf("INT active domain %v is not the sorted distinct keys", dom)
		}
	}
}

// BenchmarkActiveDomain times das_tpch's source column shape: 1,500 INT
// rows over 100 distinct keys.
func BenchmarkActiveDomain(b *testing.B) {
	s := MustSchema("R", Column{Name: "id", Kind: KindInt})
	r := New(s)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		r.MustAppend(Tuple{Int(rng.Int63n(100))})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.ActiveDomain("id"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEqualMultiset(t *testing.T) {
	s := MustSchema("R", Column{Name: "k", Kind: KindInt})
	a := MustFromTuples(s, Tuple{Int(1)}, Tuple{Int(2)}, Tuple{Int(2)})
	b := MustFromTuples(s, Tuple{Int(2)}, Tuple{Int(1)}, Tuple{Int(2)})
	c := MustFromTuples(s, Tuple{Int(2)}, Tuple{Int(1)}, Tuple{Int(1)})
	if !a.EqualMultiset(b) {
		t.Error("permuted relations reported unequal")
	}
	if a.EqualMultiset(c) {
		t.Error("different multiplicities reported equal")
	}
	// EqualMultiset must not reorder the receiver.
	if a.Tuple(0)[0].AsInt() != 1 {
		t.Error("EqualMultiset mutated receiver order")
	}
}

// Property: tuple encoding is injective over random tuples.
func TestTupleEncodeInjective(t *testing.T) {
	gen := func(r *rand.Rand) Tuple {
		return Tuple{Int(r.Int63n(50)), String_(string(rune('a' + r.Intn(5)))), Float(float64(r.Intn(4)))}
	}
	f := func(seed1, seed2 int64) bool {
		a := gen(rand.New(rand.NewSource(seed1)))
		b := gen(rand.New(rand.NewSource(seed2)))
		ea, eb := a.Encode(nil), b.Encode(nil)
		if a.Equal(b) {
			return bytes.Equal(ea, eb)
		}
		return !bytes.Equal(ea, eb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTupleCompare(t *testing.T) {
	a := Tuple{Int(1), String_("b")}
	b := Tuple{Int(1), String_("c")}
	c := Tuple{Int(1)}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Tuple.Compare lexicographic order broken")
	}
	if c.Compare(a) != -1 || a.Compare(c) != 1 {
		t.Error("Tuple.Compare prefix ordering broken")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	s := testSchema(t)
	r := MustFromTuples(s,
		Tuple{Int(1), String_("alice, the first"), Float(9.5)},
		Tuple{Int(2), String_("bob\n(newline)"), Float(-0.25)},
	)
	var buf bytes.Buffer
	if err := WriteCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("R", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualMultiset(r) {
		t.Errorf("CSV roundtrip mismatch:\n%v\nvs\n%v", got, r)
	}
	if !got.Schema().Equal(r.Schema()) {
		t.Errorf("CSV schema mismatch: %v vs %v", got.Schema(), r.Schema())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"id\n1\n",                // header without :TYPE
		"id:BLOB\n1\n",           // unknown type
		"id:INT,n:TEXT\n1\n",     // short row
		"id:INT\nnot-a-number\n", // bad value
		"id:INT,id:INT\n1,2\n",   // duplicate column
	}
	for _, c := range cases {
		if _, err := ReadCSV("R", strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", c)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := MustSchema("R", Column{Name: "k", Kind: KindInt})
	r := MustFromTuples(s, Tuple{Int(1)})
	c := r.Clone()
	c.Tuple(0)[0] = Int(99)
	if r.Tuple(0)[0].AsInt() != 1 {
		t.Error("Clone shares tuple storage with original")
	}
}

func TestRelationString(t *testing.T) {
	s := MustSchema("R", Column{Name: "k", Kind: KindInt}, Column{Name: "v", Kind: KindString})
	r := MustFromTuples(s, Tuple{Int(10), String_("hello")})
	out := r.String()
	for _, want := range []string{"k", "v", "10", "hello", "1 tuples"} {
		if !strings.Contains(out, want) {
			t.Errorf("Relation.String() missing %q:\n%s", want, out)
		}
	}
}

func TestQuickValueGeneratorCoversKinds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	seen := map[Kind]bool{}
	for i := 0; i < 200; i++ {
		seen[randomValue(r).Kind()] = true
	}
	for _, k := range []Kind{KindInt, KindString, KindFloat, KindBool} {
		if !seen[k] {
			t.Errorf("generator never produced %v", k)
		}
	}
	_ = reflect.TypeOf(quickValue{}) // keep reflect import honest
}
