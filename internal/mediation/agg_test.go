package mediation

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/leakage"
	rel "github.com/secmediation/secmediation/internal/relation"
)

// claimsSchema is the schema of the aggregation fixtures: an INT and a
// FLOAT column to aggregate, and a TEXT column that cannot be.
var claimsSchema = rel.MustSchema("Claims",
	rel.Column{Name: "id", Kind: rel.KindInt},
	rel.Column{Name: "amount", Kind: rel.KindFloat},
	rel.Column{Name: "units", Kind: rel.KindInt},
	rel.Column{Name: "payer", Kind: rel.KindString})

// claims is the four-row aggregation fixture.
func claims() *rel.Relation {
	return rel.MustFromTuples(claimsSchema,
		rel.Tuple{rel.Int(1), rel.Float(10.5), rel.Int(3), rel.String_("a")},
		rel.Tuple{rel.Int(2), rel.Float(-2.25), rel.Int(4), rel.String_("b")},
		rel.Tuple{rel.Int(3), rel.Float(100), rel.Int(-1), rel.String_("a")},
		rel.Tuple{rel.Int(4), rel.Float(0.125), rel.Int(10), rel.String_("c")},
	)
}

func aggNetwork(t testing.TB, ledger *leakage.Ledger) *Network {
	t.Helper()
	return aggNetworkOver(t, ledger, claims())
}

// aggNetworkOver assembles a one-source network serving claims as Claims
// at the source "Insurer".
func aggNetworkOver(t testing.TB, ledger *leakage.Ledger, claims *rel.Relation) *Network {
	t.Helper()
	f := getFixture(t)
	src := &Source{Name: "Insurer", Catalog: algebra.MapCatalog{"Claims": claims},
		Policies:   map[string]*credential.Policy{"Claims": policyFor("Claims")},
		TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}, Ledger: ledger}
	f.client.Ledger = ledger
	n, err := NewNetwork(f.client, &Mediator{Ledger: ledger}, src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func oneValue(t *testing.T, n *Network, sql string) rel.Value {
	t.Helper()
	res, err := n.Query(sql, ProtocolPM, fastParams())
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if res.Len() != 1 || res.Schema().Arity() != 1 {
		t.Fatalf("%s: result shape %dx%d", sql, res.Len(), res.Schema().Arity())
	}
	return res.Tuple(0)[0]
}

func TestAggregateSumFloat(t *testing.T) {
	n := aggNetwork(t, nil)
	got := oneValue(t, n, "SELECT SUM(amount) FROM Claims")
	want := 10.5 - 2.25 + 100 + 0.125
	if math.Abs(got.AsFloat()-want) > 1e-6 {
		t.Errorf("SUM(amount) = %v, want %v", got, want)
	}
}

func TestAggregateSumIntWithNegatives(t *testing.T) {
	n := aggNetwork(t, nil)
	got := oneValue(t, n, "SELECT SUM(units) FROM Claims")
	if got.AsInt() != 16 {
		t.Errorf("SUM(units) = %v, want 16", got)
	}
}

func TestAggregateCountAndAvg(t *testing.T) {
	n := aggNetwork(t, nil)
	if got := oneValue(t, n, "SELECT COUNT(*) FROM Claims"); got.AsInt() != 4 {
		t.Errorf("COUNT(*) = %v", got)
	}
	got := oneValue(t, n, "SELECT AVG(units) FROM Claims")
	if math.Abs(got.AsFloat()-4.0) > 1e-9 {
		t.Errorf("AVG(units) = %v, want 4", got)
	}
	gotF := oneValue(t, n, "SELECT AVG(amount) FROM Claims")
	want := (10.5 - 2.25 + 100 + 0.125) / 4
	if math.Abs(gotF.AsFloat()-want) > 1e-6 {
		t.Errorf("AVG(amount) = %v, want %v", gotF, want)
	}
}

func TestAggregateWithWhere(t *testing.T) {
	n := aggNetwork(t, nil)
	got := oneValue(t, n, "SELECT SUM(units) FROM Claims WHERE payer = 'a'")
	if got.AsInt() != 2 {
		t.Errorf("filtered SUM = %v, want 2", got)
	}
	if got := oneValue(t, n, "SELECT COUNT(*) FROM Claims WHERE units > 3"); got.AsInt() != 2 {
		t.Errorf("filtered COUNT = %v, want 2", got)
	}
}

// The mediator relays one sealed row: it learns no cardinality and
// applies no primitive. The source seals that row, the client opens it,
// and no party uses a homomorphic primitive.
func TestAggregateMediatorLeakage(t *testing.T) {
	ledger := leakage.NewLedger()
	n := aggNetwork(t, ledger)
	if got := oneValue(t, n, "SELECT SUM(units) FROM Claims"); got.AsInt() != 16 {
		t.Fatalf("SUM = %v", got)
	}
	assertNoCardinality(t, ledger)
	if p := ledger.Primitives(leakage.PartyMediator); len(p) != 0 {
		t.Errorf("mediator applied %v", p)
	}
	if c := ledger.PrimitiveCount(leakage.PartySource("Insurer"), "hybrid-encryption"); c != 1 {
		t.Errorf("source sealed %d rows, want 1", c)
	}
	if c := ledger.PrimitiveCount(leakage.PartyClient, "hybrid-decryption"); c != 1 {
		t.Errorf("client opened %d rows, want 1", c)
	}
}

// assertNoCardinality checks that the mediator recorded no |R| item and
// that no party used a homomorphic primitive.
func assertNoCardinality(t *testing.T, ledger *leakage.Ledger) {
	t.Helper()
	for item, v := range ledger.ObservedItems(leakage.PartyMediator) {
		if strings.HasPrefix(item, "|R") {
			t.Errorf("mediator observed %s = %d", item, v)
		}
	}
	for _, p := range ledger.AllPrimitives() {
		if strings.HasPrefix(p, "homomorphic-") {
			t.Errorf("a party used %s", p)
		}
	}
}

// An aggregate is a one-source mobile-code session whose transcript at
// the mediator is a function of the query alone: two relations of
// different cardinality and values give the same message types and body
// lengths on every mediator link.
func TestAggregateMediatorViewShape(t *testing.T) {
	large := rel.New(claimsSchema)
	for i := int64(0); i < 37; i++ {
		large.MustAppend(rel.Tuple{rel.Int(i), rel.Float(float64(i)*1.75 - 20), rel.Int(i*i - 300), rel.String_("payer")})
	}
	for _, sql := range []string{
		"SELECT SUM(units) FROM Claims",
		"SELECT AVG(units) FROM Claims",
		"SELECT SUM(amount) FROM Claims",
		"SELECT AVG(amount) FROM Claims",
		"SELECT COUNT(*) FROM Claims",
	} {
		var views [2][]string
		for i, in := range []*rel.Relation{claims(), large} {
			ledger := leakage.NewLedger()
			var tr transcript
			got, srcErrs, err := tap{log: &tr}.query(t, aggNetworkOver(t, ledger, in), sql, ProtocolPM, fastParams())
			if err != nil || srcErrs["Insurer"] != nil {
				t.Fatalf("%s: %v, source: %v", sql, err, srcErrs["Insurer"])
			}
			views[i] = tr.lines(nil)
			if got.Len() != 1 {
				t.Errorf("%s over %d rows: %d result rows", sql, in.Len(), got.Len())
			}
			assertNoCardinality(t, ledger)
		}
		if fmt.Sprint(views[0]) != fmt.Sprint(views[1]) {
			t.Errorf("%s: mediator views differ:\n%v\n%v", sql, views[0], views[1])
		}
	}
}

func TestAggregateErrors(t *testing.T) {
	n := aggNetwork(t, nil)
	cases := []string{
		"SELECT SUM(payer) FROM Claims",   // TEXT column
		"SELECT SUM(ghost) FROM Claims",   // unknown column
		"SELECT COUNT(ghost) FROM Claims", // unknown column, counted
		"SELECT SUM(amount) FROM Unknown", // unknown relation
	}
	for _, sql := range cases {
		if _, err := n.Query(sql, ProtocolPM, fastParams()); err == nil {
			t.Errorf("%s succeeded", sql)
		}
	}
	// COUNT of any existing column counts the rows.
	if got := oneValue(t, n, "SELECT COUNT(payer) FROM Claims"); got.AsInt() != 4 {
		t.Errorf("COUNT(payer) = %v, want 4", got)
	}
}

// A source's failure reaches the client through the mediator with the
// origin's party and text, prefixed "peer error: " once.
func TestRelayedSourceError(t *testing.T) {
	_, err := aggNetwork(t, nil).Query("SELECT SUM(ghost) FROM Claims", ProtocolPM, fastParams())
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Party != leakage.PartySource("Insurer") {
		t.Fatalf("err = %v, want the source's failure", err)
	}
	if n := strings.Count(err.Error(), "peer error: "); n != 1 || !strings.Contains(err.Error(), `no column "ghost"`) {
		t.Errorf("err = %v: %d relay prefixes, want 1", err, n)
	}
}

// The aggregate semantics: SUM and AVG are exact in fixed point and fail
// if and only if the true sum leaves int64; over an empty relation SUM is
// 0 of the column's kind, COUNT is 0, and AVG fails.
func TestAggregateSemantics(t *testing.T) {
	claimsOf := func(rows ...rel.Tuple) *rel.Relation { return rel.MustFromTuples(claimsSchema, rows...) }
	row := func(amount float64, units int64) rel.Tuple {
		return rel.Tuple{rel.Int(0), rel.Float(amount), rel.Int(units), rel.String_("p")}
	}
	amounts := []float64{10.1, 0.3, -2.7, 1e-6, 123456.789}
	mixed := claimsOf()
	var fixed int64
	for _, a := range amounts {
		mixed.MustAppend(row(a, 1))
		v, err := fixedPoint(rel.Float(a))
		if err != nil {
			t.Fatal(err)
		}
		fixed += v
	}
	cases := []struct {
		name   string
		claims *rel.Relation
		sql    string
		want   rel.Value // invalid: the query must fail
	}{
		{"sum back in range", claimsOf(row(0, math.MaxInt64), row(0, 1), row(0, -1)), "SELECT SUM(units) FROM Claims", rel.Int(math.MaxInt64)},
		{"sum above int64", claimsOf(row(0, math.MaxInt64), row(0, 1)), "SELECT SUM(units) FROM Claims", rel.Value{}},
		{"sum below int64", claimsOf(row(0, math.MinInt64), row(0, -1)), "SELECT SUM(units) FROM Claims", rel.Value{}},
		{"empty int sum", claimsOf(), "SELECT SUM(units) FROM Claims", rel.Int(0)},
		{"empty float sum", claimsOf(), "SELECT SUM(amount) FROM Claims", rel.Float(0)},
		{"empty count", claimsOf(), "SELECT COUNT(*) FROM Claims", rel.Int(0)},
		{"empty avg", claimsOf(), "SELECT AVG(units) FROM Claims", rel.Value{}},
		{"float sum", mixed, "SELECT SUM(amount) FROM Claims", rel.Float(float64(fixed) / 1e6)},
		{"float avg", mixed, "SELECT AVG(amount) FROM Claims", rel.Float(float64(fixed) / float64(len(amounts)) / 1e6)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := aggNetworkOver(t, nil, tc.claims).Query(tc.sql, ProtocolPM, fastParams())
			if !tc.want.Valid() {
				if err == nil {
					t.Errorf("%s = %v, want an error", tc.sql, res)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			// Equal compares floats with ==: the results are bit-exact.
			if got := res.Tuple(0)[0]; !got.Equal(tc.want) {
				t.Errorf("%s = %v (%v), want %v (%v)", tc.sql, got, got.Kind(), tc.want, tc.want.Kind())
			}
		})
	}
}

func TestFixedPoint(t *testing.T) {
	if v, err := fixedPoint(rel.Int(-7)); err != nil || v != -7 {
		t.Errorf("fixedPoint(INT): %d, %v", v, err)
	}
	if v, err := fixedPoint(rel.Float(1.5)); err != nil || v != 1500000 {
		t.Errorf("fixedPoint(FLOAT): %d, %v", v, err)
	}
	if _, err := fixedPoint(rel.Float(math.NaN())); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := fixedPoint(rel.Float(math.Inf(1))); err == nil {
		t.Error("Inf accepted")
	}
	if _, err := fixedPoint(rel.Float(1e300)); err == nil {
		t.Error("overflowing float accepted")
	}
	if _, err := fixedPoint(rel.Bool(true)); err == nil {
		t.Error("BOOL accepted")
	}
}
