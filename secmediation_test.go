package secmediation_test

import (
	"strings"
	"testing"
	"time"

	secmediation "github.com/secmediation/secmediation"
)

// buildWorld assembles the quickstart topology through the public API only.
func buildWorld(t testing.TB) (*secmediation.Network, *secmediation.Relation, *secmediation.Relation) {
	t.Helper()
	ca, err := secmediation.NewAuthority("DemoCA")
	if err != nil {
		t.Fatal(err)
	}
	client, err := secmediation.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	cred, err := ca.Issue(secmediation.PublicKeyOf(client),
		[]secmediation.Property{{Name: "role", Value: "analyst"}}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	client.Credentials = secmediation.Credentials{cred}

	patients := secmediation.MustSchema("Patients",
		secmediation.Column{Name: "pid", Kind: secmediation.KindInt},
		secmediation.Column{Name: "name", Kind: secmediation.KindString})
	claims := secmediation.MustSchema("Claims",
		secmediation.Column{Name: "pid", Kind: secmediation.KindInt},
		secmediation.Column{Name: "amount", Kind: secmediation.KindFloat})
	r1, err := secmediation.FromTuples(patients,
		secmediation.Tuple{secmediation.Int(1), secmediation.Str("ada")},
		secmediation.Tuple{secmediation.Int(2), secmediation.Str("bob")},
		secmediation.Tuple{secmediation.Int(3), secmediation.Str("cyd")})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := secmediation.FromTuples(claims,
		secmediation.Tuple{secmediation.Int(2), secmediation.Float(120.5)},
		secmediation.Tuple{secmediation.Int(3), secmediation.Float(7.25)},
		secmediation.Tuple{secmediation.Int(4), secmediation.Float(99)})
	if err != nil {
		t.Fatal(err)
	}
	s1 := secmediation.NewSource("Hospital", map[string]*secmediation.Relation{"Patients": r1},
		[]*secmediation.Policy{secmediation.RequireProperty("Patients", "role", "analyst")}, ca)
	s2 := secmediation.NewSource("Insurer", map[string]*secmediation.Relation{"Claims": r2},
		[]*secmediation.Policy{secmediation.RequireProperty("Claims", "role", "analyst")}, ca)
	net, err := secmediation.NewNetwork(client, &secmediation.Mediator{}, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	return net, r1, r2
}

func TestPublicAPIQuickstart(t *testing.T) {
	net, _, _ := buildWorld(t)
	params := secmediation.Params{PaillierBits: 1024, Partitions: 2}
	for _, proto := range []secmediation.Protocol{secmediation.Plaintext, secmediation.MobileCode, secmediation.DAS, secmediation.Commutative, secmediation.PM} {
		got, err := net.Query("SELECT * FROM Patients JOIN Claims ON Patients.pid = Claims.pid", proto, params)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if got.Len() != 2 {
			t.Errorf("%v: join size %d, want 2\n%v", proto, got.Len(), got)
		}
	}
}

func TestPublicAPILedgerAndWorkload(t *testing.T) {
	spec := secmediation.JoinSpec{Rows1: 30, Rows2: 30, Domain1: 10, Domain2: 10, Overlap: 0.5, Seed: 1}
	r1, r2, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 30 || r2.Len() != 30 {
		t.Errorf("workload rows %d/%d", r1.Len(), r2.Len())
	}
	ledger := secmediation.NewLedger()
	ledger.Observe("mediator", "|R1|", int64(r1.Len()))
	if v, ok := ledger.Observed("mediator", "|R1|"); !ok || v != 30 {
		t.Error("ledger roundtrip failed")
	}
}

func TestPublicAPIHierarchy(t *testing.T) {
	net, _, _ := buildWorld(t)
	first, err := net.Query("SELECT * FROM Patients NATURAL JOIN Claims", secmediation.Commutative,
		secmediation.Params{})
	if err != nil {
		t.Fatal(err)
	}
	view, err := secmediation.MaterializeView(first, "V")
	if err != nil {
		t.Fatal(err)
	}
	if view.Schema().Relation != "V" || view.Len() != first.Len() {
		t.Errorf("view: %v", view.Schema())
	}
}

func TestPublicAPIAggregation(t *testing.T) {
	net, _, _ := buildWorld(t)
	res, err := net.Query("SELECT SUM(amount) FROM Claims", secmediation.PM,
		secmediation.Params{PaillierBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Tuple(0)[0].AsFloat()
	want := 120.5 + 7.25 + 99
	if got < want-1e-6 || got > want+1e-6 {
		t.Errorf("SUM(amount) = %v, want %v", got, want)
	}
	cnt, err := net.Query("SELECT COUNT(*) FROM Patients", secmediation.PM,
		secmediation.Params{PaillierBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Tuple(0)[0].AsInt() != 3 {
		t.Errorf("COUNT = %v", cnt.Tuple(0)[0])
	}
}

func TestPublicAPIPushdownParam(t *testing.T) {
	net, _, _ := buildWorld(t)
	params := secmediation.Params{Partitions: 8, Pushdown: true, PaillierBits: 1024}
	res, err := net.Query(
		"SELECT * FROM Patients JOIN Claims ON Patients.pid = Claims.pid WHERE Patients.pid >= 3",
		secmediation.DAS, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("pushdown query = %d tuples, want 1\n%v", res.Len(), res)
	}
}

func TestPublicAPIDistinctAndWhere(t *testing.T) {
	net, _, _ := buildWorld(t)
	res, err := net.Query(
		"SELECT DISTINCT name FROM Patients JOIN Claims ON Patients.pid = Claims.pid WHERE amount > 5.0",
		secmediation.Commutative, secmediation.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 { // bob and cyd
		t.Errorf("distinct names = %d, want 2\n%v", res.Len(), res)
	}
}

func TestPublicAPIParseWhere(t *testing.T) {
	e, err := secmediation.ParseWhere("SELECT * FROM R WHERE x >= 10")
	if err != nil || e == nil {
		t.Fatalf("ParseWhere: %v", err)
	}
	schema := secmediation.MustSchema("R", secmediation.Column{Name: "x", Kind: secmediation.KindInt})
	k, err := e.Check(schema)
	if err != nil || k != secmediation.KindBool {
		t.Errorf("predicate check: %v %v", k, err)
	}
	if _, err := secmediation.ParseWhere("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestPublicAPICSVRoundtrip(t *testing.T) {
	schema := secmediation.MustSchema("T",
		secmediation.Column{Name: "a", Kind: secmediation.KindInt},
		secmediation.Column{Name: "b", Kind: secmediation.KindString})
	r, err := secmediation.FromTuples(schema,
		secmediation.Tuple{secmediation.Int(1), secmediation.Str("x")})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := secmediation.WriteCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := secmediation.ReadCSV("T", strings.NewReader(buf.String()))
	if err != nil || !back.EqualMultiset(r) {
		t.Errorf("facade CSV roundtrip: %v", err)
	}
}

func TestPublicAPIWorkloadSpec(t *testing.T) {
	spec := secmediation.JoinSpec{Rows1: 10, Rows2: 10, Domain1: 5, Domain2: 5, Overlap: 1, Seed: 3}
	r1, r2, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 10 || r2.Len() != 10 {
		t.Error("workload generation via facade failed")
	}
}
