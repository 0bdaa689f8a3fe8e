package mediation

import (
	"crypto/rsa"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/pm"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/telemetry"
)

// fixture holds a ready-made credential world shared across tests (key
// generation is the expensive part).
type fixture struct {
	ca     *credential.Authority
	client *Client
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		ca, err := credential.NewAuthority("TestCA")
		if err != nil {
			panic(err)
		}
		client, err := NewClient()
		if err != nil {
			panic(err)
		}
		cred, err := ca.Issue(&client.PrivateKey.PublicKey,
			[]credential.Property{{Name: "role", Value: "analyst"}}, time.Hour)
		if err != nil {
			panic(err)
		}
		client.Credentials = credential.Set{cred}
		fix = &fixture{ca: ca, client: client}
	})
	return fix
}

func testRelations(t testing.TB) (*rel.Relation, *rel.Relation) {
	t.Helper()
	s1 := rel.MustSchema("R1",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "name", Kind: rel.KindString})
	s2 := rel.MustSchema("R2",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "city", Kind: rel.KindString})
	r1 := rel.MustFromTuples(s1,
		rel.Tuple{rel.Int(1), rel.String_("ada")},
		rel.Tuple{rel.Int(2), rel.String_("bob")},
		rel.Tuple{rel.Int(3), rel.String_("cyd")},
		rel.Tuple{rel.Int(3), rel.String_("cyd2")},
		rel.Tuple{rel.Int(7), rel.String_("gus")},
	)
	r2 := rel.MustFromTuples(s2,
		rel.Tuple{rel.Int(2), rel.String_("berlin")},
		rel.Tuple{rel.Int(3), rel.String_("dortmund")},
		rel.Tuple{rel.Int(3), rel.String_("essen")},
		rel.Tuple{rel.Int(9), rel.String_("hagen")},
	)
	return r1, r2
}

// policyFor grants role=analyst access to a relation.
func policyFor(relName string) *credential.Policy {
	return &credential.Policy{
		Relation: relName,
		Require:  []credential.Requirement{{Property: credential.Property{Name: "role", Value: "analyst"}}},
	}
}

// newTestNetwork assembles the standard two-source network.
func newTestNetwork(t testing.TB, ledger *leakage.Ledger) *Network {
	t.Helper()
	r1, r2 := testRelations(t)
	return networkOver(t, ledger, r1, r2)
}

// networkOver assembles a two-source network serving r1 as R1 at S1 and
// r2 as R2 at S2.
func networkOver(t testing.TB, ledger *leakage.Ledger, r1, r2 *rel.Relation) *Network {
	t.Helper()
	f := getFixture(t)
	s1 := &Source{
		Name:       "S1",
		Catalog:    algebra.MapCatalog{"R1": r1},
		Policies:   map[string]*credential.Policy{"R1": policyFor("R1")},
		TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()},
		Ledger:     ledger,
	}
	s2 := &Source{
		Name:       "S2",
		Catalog:    algebra.MapCatalog{"R2": r2},
		Policies:   map[string]*credential.Policy{"R2": policyFor("R2")},
		TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()},
		Ledger:     ledger,
	}
	med := &Mediator{Ledger: ledger}
	f.client.Ledger = ledger
	n, err := NewNetwork(f.client, med, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// expectedJoin is the plaintext truth for the standard fixture query.
func expectedJoin(t testing.TB) *rel.Relation {
	t.Helper()
	r1, r2 := testRelations(t)
	out, err := algebra.EquiJoin(r1, r2, []string{"id"}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

const fixtureSQL = "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id"

// fastParams keeps cryptographic parameters small enough for unit tests
// while exercising the full protocol paths.
func fastParams() Params {
	return Params{Partitions: 3}
}

// All five protocols must produce exactly the same global result.
func TestAllProtocolsAgree(t *testing.T) {
	want := expectedJoin(t)
	for _, proto := range []Protocol{ProtocolPlaintext, ProtocolMobileCode, ProtocolDAS, ProtocolCommutative, ProtocolPM} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			n := newTestNetwork(t, nil)
			got, err := n.Query(fixtureSQL, proto, fastParams())
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualMultiset(want) {
				t.Errorf("result mismatch:\n%v\nwant\n%v", got, want)
			}
			if errs := n.SourceErrors(); len(errs) != 0 {
				t.Errorf("source errors: %v", errs)
			}
		})
	}
}

// PM's variants are inputs: each source derives its bucket count from
// its own domain size, here 9 and 5 values (B = 8 and 4), then 17 and 3
// (B = 16 and 2).
func TestProtocolVariants(t *testing.T) {
	s1, s2 := testRelations(t)
	wide := func(n1, n2 int64) []*rel.Relation {
		return []*rel.Relation{buildComm(s1.Schema(), "r1", idRange(0, 3, n1)...), buildComm(s2.Schema(), "r2", idRange(0, 2, n2)...)}
	}
	cases := []struct {
		name   string
		proto  Protocol
		params Params
		in     []*rel.Relation // nil: the fixture
	}{
		{"das-two-partitions", ProtocolDAS, Params{Partitions: 2}, nil},
		{"das-four-partitions", ProtocolDAS, Params{Partitions: 4}, nil},
		{"das-one-partition", ProtocolDAS, Params{Partitions: 1}, nil},
		{"pm-hybrid-payload", ProtocolPM, Params{}, nil},
		{"pm-bucketed", ProtocolPM, Params{}, wide(9, 5)},
		{"pm-bucketed-hybrid", ProtocolPM, Params{}, wide(17, 3)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n, want := newTestNetwork(t, nil), expectedJoin(t)
			if tc.in != nil {
				var err error
				n = networkOver(t, nil, tc.in[0], tc.in[1])
				if want, err = algebra.EquiJoin(tc.in[0], tc.in[1], []string{"id"}, []string{"id"}); err != nil {
					t.Fatal(err)
				}
				if want.Len() == 0 {
					t.Fatal("the input joins no rows")
				}
			}
			got, err := n.Query(fixtureSQL, tc.proto, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualMultiset(want) {
				t.Errorf("result mismatch:\n%v\nwant\n%v", got, want)
			}
		})
	}
}

func TestNaturalJoinQuery(t *testing.T) {
	r1, r2 := testRelations(t)
	want, err := algebra.NaturalJoin(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []Protocol{ProtocolPlaintext, ProtocolCommutative, ProtocolDAS, ProtocolPM} {
		n := newTestNetwork(t, nil)
		got, err := n.Query("SELECT * FROM R1 NATURAL JOIN R2", proto, fastParams())
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !got.EqualMultiset(want) {
			t.Errorf("%v natural join mismatch:\n%v\nwant\n%v", proto, got, want)
		}
	}
}

func TestWhereAndProjectionPostProcessing(t *testing.T) {
	n := newTestNetwork(t, nil)
	got, err := n.Query("SELECT name, city FROM R1 JOIN R2 ON R1.id = R2.id WHERE city <> 'essen'", ProtocolCommutative, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Arity() != 2 {
		t.Errorf("projection not applied: %v", got.Schema())
	}
	// Full join has 5 tuples (id2 ×1, id3 2×2); one 'essen' pair removes 2.
	if got.Len() != 3 {
		t.Errorf("WHERE not applied: %d tuples\n%v", got.Len(), got)
	}
}

func TestAccessDenied(t *testing.T) {
	f := getFixture(t)
	r1, r2 := testRelations(t)
	strictPolicy := &credential.Policy{
		Relation: "R1",
		Require:  []credential.Requirement{{Property: credential.Property{Name: "role", Value: "admin"}}},
	}
	s1 := &Source{Name: "S1", Catalog: algebra.MapCatalog{"R1": r1},
		Policies: map[string]*credential.Policy{"R1": strictPolicy}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	s2 := &Source{Name: "S2", Catalog: algebra.MapCatalog{"R2": r2},
		Policies: map[string]*credential.Policy{"R2": policyFor("R2")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	n, err := NewNetwork(f.client, &Mediator{}, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Query(fixtureSQL, ProtocolCommutative, fastParams()); err == nil {
		t.Fatal("query succeeded despite denial")
	}
}

func TestRowLevelFiltering(t *testing.T) {
	f := getFixture(t)
	r1, r2 := testRelations(t)
	// Analysts only see R1 rows with id < 3.
	filtered := policyFor("R1")
	filtered.Filters = []credential.RowFilter{{
		IfProperty: credential.Property{Name: "role", Value: "analyst"},
		Predicate:  algebra.Compare{Op: algebra.OpLt, Left: algebra.ColumnRef{Name: "id"}, Right: algebra.Literal{Value: rel.Int(3)}},
	}}
	s1 := &Source{Name: "S1", Catalog: algebra.MapCatalog{"R1": r1},
		Policies: map[string]*credential.Policy{"R1": filtered}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	s2 := &Source{Name: "S2", Catalog: algebra.MapCatalog{"R2": r2},
		Policies: map[string]*credential.Policy{"R2": policyFor("R2")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	n, err := NewNetwork(f.client, &Mediator{}, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.Query(fixtureSQL, ProtocolCommutative, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	// Only id=2 survives the filter and matches.
	if got.Len() != 1 {
		t.Errorf("row filter not enforced: %d tuples\n%v", got.Len(), got)
	}
}

func TestMultiAttributeJoin(t *testing.T) {
	f := getFixture(t)
	s1 := rel.MustSchema("E1",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "dept", Kind: rel.KindString},
		rel.Column{Name: "name", Kind: rel.KindString})
	s2 := rel.MustSchema("E2",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "dept", Kind: rel.KindString},
		rel.Column{Name: "city", Kind: rel.KindString})
	e1 := rel.MustFromTuples(s1,
		rel.Tuple{rel.Int(1), rel.String_("a"), rel.String_("n1")},
		rel.Tuple{rel.Int(1), rel.String_("b"), rel.String_("n2")},
		rel.Tuple{rel.Int(2), rel.String_("a"), rel.String_("n3")})
	e2 := rel.MustFromTuples(s2,
		rel.Tuple{rel.Int(1), rel.String_("a"), rel.String_("c1")},
		rel.Tuple{rel.Int(2), rel.String_("b"), rel.String_("c2")})
	want, err := algebra.EquiJoin(e1, e2, []string{"id", "dept"}, []string{"id", "dept"})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM E1 JOIN E2 ON E1.id = E2.id AND E1.dept = E2.dept"
	for _, proto := range []Protocol{ProtocolCommutative, ProtocolPM, ProtocolDAS} {
		src1 := &Source{Name: "S1", Catalog: algebra.MapCatalog{"E1": e1},
			Policies: map[string]*credential.Policy{"E1": policyFor("E1")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
		src2 := &Source{Name: "S2", Catalog: algebra.MapCatalog{"E2": e2},
			Policies: map[string]*credential.Policy{"E2": policyFor("E2")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
		n, err := NewNetwork(f.client, &Mediator{}, src1, src2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.Query(sql, proto, fastParams())
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !got.EqualMultiset(want) {
			t.Errorf("%v multi-attribute mismatch:\n%v\nwant\n%v", proto, got, want)
		}
	}
}

// Table 1, mediator column: what each protocol's mediator observes.
func TestTable1MediatorLeakage(t *testing.T) {
	r1, r2 := testRelations(t)

	// DAS: |R1|, |R2| and |RC|.
	ledger := leakage.NewLedger()
	n := newTestNetwork(t, ledger)
	if _, err := n.Query(fixtureSQL, ProtocolDAS, fastParams()); err != nil {
		t.Fatal(err)
	}
	if v, ok := ledger.Observed(leakage.PartyMediator, "|R1|"); !ok || v != int64(r1.Len()) {
		t.Errorf("DAS mediator |R1| = %d,%v; want %d", v, ok, r1.Len())
	}
	if v, ok := ledger.Observed(leakage.PartyMediator, "|R2|"); !ok || v != int64(r2.Len()) {
		t.Errorf("DAS mediator |R2| = %d,%v; want %d", v, ok, r2.Len())
	}
	rc, ok := ledger.Observed(leakage.PartyMediator, "|RC|")
	if !ok || rc < int64(expectedJoin(t).Len()) {
		t.Errorf("DAS mediator |RC| = %d,%v; want ≥ join size", rc, ok)
	}
	// DAS mediator must NOT learn active-domain sizes.
	if _, ok := ledger.Observed(leakage.PartyMediator, "|domactive(R1.Ajoin)|"); ok {
		t.Error("DAS mediator learned active-domain size")
	}

	// Commutative: |domactive| and intersection size; NOT |Ri|.
	ledger = leakage.NewLedger()
	n = newTestNetwork(t, ledger)
	if _, err := n.Query(fixtureSQL, ProtocolCommutative, fastParams()); err != nil {
		t.Fatal(err)
	}
	d1, _ := r1.ActiveDomain("id")
	d2, _ := r2.ActiveDomain("id")
	if v, _ := ledger.Observed(leakage.PartyMediator, "|domactive(R1.Ajoin)|"); v != int64(len(d1)) {
		t.Errorf("comm mediator |dom1| = %d, want %d", v, len(d1))
	}
	if v, _ := ledger.Observed(leakage.PartyMediator, "|domactive(R2.Ajoin)|"); v != int64(len(d2)) {
		t.Errorf("comm mediator |dom2| = %d, want %d", v, len(d2))
	}
	if v, _ := ledger.Observed(leakage.PartyMediator, "|domactive(R1) ∩ domactive(R2)|"); v != 2 {
		t.Errorf("comm mediator intersection = %d, want 2 (ids 2 and 3)", v)
	}
	if _, ok := ledger.Observed(leakage.PartyMediator, "|R1|"); ok {
		t.Error("commutative mediator learned |R1|")
	}

	// PM: per source, the bucket count B, derived from its own
	// |domactive(A)|, and the max bucket load L.
	for _, in := range pmLeakageInputs(t) {
		ledger = leakage.NewLedger()
		n = networkOver(t, ledger, in[0], in[1])
		if _, err := n.Query(fixtureSQL, ProtocolPM, fastParams()); err != nil {
			t.Fatal(err)
		}
		checkBucketShape(t, ledger, leakage.PartyMediator, "R1.Ajoin", in[0])
		checkBucketShape(t, ledger, leakage.PartyMediator, "R2.Ajoin", in[1])
		if _, ok := ledger.Observed(leakage.PartyMediator, "|R1|"); ok {
			t.Error("pm mediator learned |R1|")
		}
	}
}

// pmLeakageInputs are the PM leakage tests' inputs: the fixture, whose
// 4 and 3 values make B = 2 on both sides, and 20 and 9 values, which
// make B = 16 and 8.
func pmLeakageInputs(t *testing.T) [][2]*rel.Relation {
	r1, r2 := testRelations(t)
	return [][2]*rel.Relation{{r1, r2},
		{buildComm(r1.Schema(), "w1", idRange(0, 1, 20)...), buildComm(r2.Schema(), "w2", idRange(0, 2, 9)...)}}
}

// idRange is the n join values from, from + step, ….
func idRange(from, step, n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = from + int64(i)*step
	}
	return out
}

// checkBucketShape asserts that party recorded, for the PM polynomials of
// r's join attribute, the bucket count pm.BucketCount(|domactive(id)|)
// and the max bucket load, counted here with pm.BucketIndex.
func checkBucketShape(t *testing.T, ledger *leakage.Ledger, party, of string, r *rel.Relation) {
	t.Helper()
	dom, err := r.ActiveDomain("id")
	if err != nil {
		t.Fatal(err)
	}
	buckets := pm.BucketCount(len(dom))
	loads := make([]int64, buckets)
	var maxLoad int64
	for _, v := range dom {
		i := pm.BucketIndex(pm.RootOfValue(v), buckets)
		loads[i]++
		maxLoad = max(maxLoad, loads[i])
	}
	if v, ok := ledger.Observed(party, "buckets("+of+")"); !ok || v != int64(buckets) {
		t.Errorf("%s: buckets(%s) = %d,%v; want %d", party, of, v, ok, buckets)
	}
	if v, ok := ledger.Observed(party, "max-bucket-load("+of+")"); !ok || v != maxLoad {
		t.Errorf("%s: max-bucket-load(%s) = %d,%v; want %d (B = %d)", party, of, v, ok, maxLoad, buckets)
	}
}

// Table 1, client column: superset for DAS, exact result for commutative,
// all encrypted values for PM.
func TestTable1ClientLeakage(t *testing.T) {
	joinSize := int64(expectedJoin(t).Len())

	ledger := leakage.NewLedger()
	n := newTestNetwork(t, ledger)
	if _, err := n.Query(fixtureSQL, ProtocolDAS, Params{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	superset, _ := ledger.Observed(leakage.PartyClient, "superset-size")
	if superset < joinSize {
		t.Errorf("DAS superset %d < join %d", superset, joinSize)
	}
	// With a single partition the superset is the full cross product.
	r1, r2 := testRelations(t)
	if superset != int64(r1.Len()*r2.Len()) {
		t.Errorf("DAS 1-partition superset = %d, want %d", superset, r1.Len()*r2.Len())
	}

	ledger = leakage.NewLedger()
	n = newTestNetwork(t, ledger)
	if _, err := n.Query(fixtureSQL, ProtocolCommutative, fastParams()); err != nil {
		t.Fatal(err)
	}
	if v, _ := ledger.Observed(leakage.PartyClient, "result-tuples"); v != joinSize {
		t.Errorf("commutative client received %d tuples, want exactly %d", v, joinSize)
	}

	ledger = leakage.NewLedger()
	n = newTestNetwork(t, ledger)
	if _, err := n.Query(fixtureSQL, ProtocolPM, fastParams()); err != nil {
		t.Fatal(err)
	}
	d1, _ := r1.ActiveDomain("id")
	d2, _ := r2.ActiveDomain("id")
	if v, _ := ledger.Observed(leakage.PartyClient, "encrypted-values-received"); v != int64(len(d1)+len(d2)) {
		t.Errorf("pm client received %d encrypted values, want n+m = %d", v, len(d1)+len(d2))
	}
}

// Table 2: applied cryptographic primitives per protocol.
func TestTable2Primitives(t *testing.T) {
	check := func(proto Protocol, params Params, wantPresent, wantAbsent []string) {
		t.Helper()
		ledger := leakage.NewLedger()
		n := newTestNetwork(t, ledger)
		if _, err := n.Query(fixtureSQL, proto, params); err != nil {
			t.Fatal(err)
		}
		prims := map[string]bool{}
		for _, p := range ledger.AllPrimitives() {
			prims[p] = true
		}
		for _, p := range wantPresent {
			if !prims[p] {
				t.Errorf("%v: primitive %q not applied (have %v)", proto, p, ledger.AllPrimitives())
			}
		}
		for _, p := range wantAbsent {
			if prims[p] {
				t.Errorf("%v: primitive %q applied unexpectedly", proto, p)
			}
		}
	}
	check(ProtocolDAS, fastParams(),
		[]string{"collision-free-hash", "hybrid-encryption"},
		[]string{"commutative-encryption", "homomorphic-encryption"})
	check(ProtocolCommutative, fastParams(),
		[]string{"ideal-hash", "commutative-encryption", "hybrid-encryption"},
		[]string{"collision-free-hash", "homomorphic-encryption"})
	check(ProtocolPM, fastParams(),
		[]string{"homomorphic-encryption", "homomorphic-evaluation", "random-masking"},
		[]string{"commutative-encryption", "ideal-hash", "collision-free-hash"})
}

// The sources learn the opposite active-domain size in the commutative
// protocol, and the opposite bucket count and max bucket load in PM
// (Section 6).
func TestSourceLeakage(t *testing.T) {
	r1, r2 := testRelations(t)
	d1, _ := r1.ActiveDomain("id")
	d2, _ := r2.ActiveDomain("id")
	ledger := leakage.NewLedger()
	n := newTestNetwork(t, ledger)
	if _, err := n.Query(fixtureSQL, ProtocolCommutative, fastParams()); err != nil {
		t.Fatal(err)
	}
	if v, _ := ledger.Observed(leakage.PartySource("S1"), "|domactive(opposite)|"); v != int64(len(d2)) {
		t.Errorf("S1 sees opposite domain %d, want %d", v, len(d2))
	}
	if v, _ := ledger.Observed(leakage.PartySource("S2"), "|domactive(opposite)|"); v != int64(len(d1)) {
		t.Errorf("S2 sees opposite domain %d, want %d", v, len(d1))
	}
	for _, in := range pmLeakageInputs(t) {
		ledger := leakage.NewLedger()
		n := networkOver(t, ledger, in[0], in[1])
		if _, err := n.Query(fixtureSQL, ProtocolPM, fastParams()); err != nil {
			t.Fatal(err)
		}
		checkBucketShape(t, ledger, leakage.PartySource("S1"), "opposite", in[1])
		checkBucketShape(t, ledger, leakage.PartySource("S2"), "opposite", in[0])
	}
}

// The ledger holds Tables 1 and 2 only: each party's observed items are
// exactly those its protocol declares, with no cost or traffic entries
// beside them.
func TestLedgerHoldsOnlyTable1Items(t *testing.T) {
	none := []string{}
	for _, tc := range []struct {
		proto                    Protocol
		client, mediator, source []string
	}{
		{ProtocolPlaintext, none, []string{"plaintext-tuples-seen"}, none},
		{ProtocolMobileCode, []string{"tuples-received"}, []string{"|R1|", "|R2|"}, none},
		{ProtocolDAS, []string{"false-positives-discarded", "index-table-partitions", "superset-size"},
			[]string{"|R1|", "|R2|", "|RC|"}, none},
		{ProtocolCommutative, []string{"result-tuples"},
			[]string{"|domactive(R1) ∩ domactive(R2)|", "|domactive(R1.Ajoin)|", "|domactive(R2.Ajoin)|"},
			[]string{"|domactive(opposite)|"}},
		{ProtocolPM, []string{"encrypted-values-received", "result-tuples"},
			[]string{"buckets(R1.Ajoin)", "buckets(R2.Ajoin)", "max-bucket-load(R1.Ajoin)", "max-bucket-load(R2.Ajoin)"},
			[]string{"buckets(opposite)", "max-bucket-load(opposite)"}},
	} {
		ledger := leakage.NewLedger()
		n := newTestNetwork(t, ledger)
		if _, err := n.Query(fixtureSQL, tc.proto, fastParams()); err != nil {
			t.Fatal(err)
		}
		for party, want := range map[string][]string{
			leakage.PartyClient:       tc.client,
			leakage.PartyMediator:     tc.mediator,
			leakage.PartySource("S1"): tc.source,
			leakage.PartySource("S2"): tc.source,
		} {
			var got []string
			for item := range ledger.ObservedItems(party) {
				got = append(got, item)
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%v: %s observed %v, want exactly %v", tc.proto, party, got, want)
			}
		}
	}
}

// Section 6: the DAS client interacts twice with the mediator (query +
// server-query), the other protocols once.
func TestClientInteractionCounts(t *testing.T) {
	counts := map[Protocol]int64{}
	for _, proto := range []Protocol{ProtocolDAS, ProtocolCommutative, ProtocolPM} {
		n := newTestNetwork(t, nil)
		reg := telemetry.NewRegistry()
		n.SetTelemetry(reg)
		if _, err := n.Query(fixtureSQL, proto, fastParams()); err != nil {
			t.Fatal(err)
		}
		for _, c := range []string{"transport_msgs_sent", "transport_msgs_recv"} {
			counts[proto] += reg.Counter(c, "party", leakage.PartyClient, "peer", "mediator").Value()
		}
	}
	// DAS: request + server query sent, index tables + result received = 4.
	if counts[ProtocolDAS] != 4 {
		t.Errorf("DAS client messages = %d, want 4", counts[ProtocolDAS])
	}
	// Others: request sent, result received = 2.
	if counts[ProtocolCommutative] != 2 || counts[ProtocolPM] != 2 {
		t.Errorf("comm/pm client messages = %d/%d, want 2/2", counts[ProtocolCommutative], counts[ProtocolPM])
	}
}

// Mediator hierarchy (Section 8): a join result materialized as a view can
// feed a successive join at a delegate source.
func TestHierarchySuccessiveJoins(t *testing.T) {
	f := getFixture(t)
	n := newTestNetwork(t, nil)
	first, err := n.Query("SELECT * FROM R1 NATURAL JOIN R2", ProtocolCommutative, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	view, err := MaterializeView(first, "V")
	if err != nil {
		t.Fatal(err)
	}
	s3Schema := rel.MustSchema("R3",
		rel.Column{Name: "city", Kind: rel.KindString},
		rel.Column{Name: "country", Kind: rel.KindString})
	r3 := rel.MustFromTuples(s3Schema,
		rel.Tuple{rel.String_("berlin"), rel.String_("de")},
		rel.Tuple{rel.String_("dortmund"), rel.String_("de")},
		rel.Tuple{rel.String_("paris"), rel.String_("fr")})
	delegate := &Source{Name: "Delegate", Catalog: algebra.MapCatalog{"V": view},
		Policies: map[string]*credential.Policy{"V": policyFor("V")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	s3 := &Source{Name: "S3", Catalog: algebra.MapCatalog{"R3": r3},
		Policies: map[string]*credential.Policy{"R3": policyFor("R3")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	n2, err := NewNetwork(f.client, &Mediator{}, delegate, s3)
	if err != nil {
		t.Fatal(err)
	}
	second, err := n2.Query("SELECT * FROM V NATURAL JOIN R3", ProtocolCommutative, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	want, err := algebra.NaturalJoin(view, r3)
	if err != nil {
		t.Fatal(err)
	}
	if !second.EqualMultiset(want) {
		t.Errorf("hierarchy join mismatch:\n%v\nwant\n%v", second, want)
	}
}

func TestDecomposeErrors(t *testing.T) {
	schemas := map[string]rel.Schema{
		"R1": rel.MustSchema("R1", rel.Column{Name: "id", Kind: rel.KindInt}),
		"R2": rel.MustSchema("R2", rel.Column{Name: "id", Kind: rel.KindInt}),
		"R3": rel.MustSchema("R3", rel.Column{Name: "x", Kind: rel.KindString}),
	}
	bad := []string{
		"SELECT * FROM R1",                          // not a join
		"SELECT * FROM RX JOIN R2 ON RX.id = R2.id", // unknown left
		"SELECT * FROM R1 JOIN RX ON R1.id = RX.id", // unknown right
		"SELECT * FROM R1 JOIN R2 ON R1.zz = R2.id", // unknown column
		"SELECT * FROM R1 JOIN R3 ON R1.id = R3.x",  // kind mismatch
		"SELECT * FROM R1 NATURAL JOIN R3",          // no shared columns
		"this is not sql",                           // parse error
	}
	for _, sql := range bad {
		if _, err := decompose(sql, schemas); err == nil {
			t.Errorf("decompose(%q) succeeded", sql)
		}
	}
	good, err := decompose("SELECT * FROM R1 JOIN R2 ON R1.id = R2.id", schemas)
	if err != nil {
		t.Fatal(err)
	}
	if good.rel1 != "R1" || good.joinCols1[0] != "id" {
		t.Errorf("decompose: %+v", good)
	}
}

func TestMediatorUnknownRelationRoute(t *testing.T) {
	f := getFixture(t)
	n, err := NewNetwork(f.client, &Mediator{Schemas: map[string]rel.Schema{
		"A": rel.MustSchema("A", rel.Column{Name: "id", Kind: rel.KindInt}),
		"B": rel.MustSchema("B", rel.Column{Name: "id", Kind: rel.KindInt}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Query("SELECT * FROM A JOIN B ON A.id = B.id", ProtocolPlaintext, Params{}); err == nil {
		t.Error("query with unroutable relations succeeded")
	}
}

func TestDuplicateRelationRejected(t *testing.T) {
	f := getFixture(t)
	r1, _ := testRelations(t)
	s1 := &Source{Name: "S1", Catalog: algebra.MapCatalog{"R1": r1}}
	s2 := &Source{Name: "S2", Catalog: algebra.MapCatalog{"R1": r1}}
	if _, err := NewNetwork(f.client, &Mediator{}, s1, s2); err == nil {
		t.Error("duplicate relation accepted")
	}
}

func TestCredentialSubsetSelection(t *testing.T) {
	f := getFixture(t)
	// Issue a second, irrelevant credential; hint the mediator that R1/R2
	// need "role" so only the role credential is forwarded.
	other, err := f.ca.Issue(&f.client.PrivateKey.PublicKey,
		[]credential.Property{{Name: "membership", Value: "gold"}}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	saved := f.client.Credentials
	defer func() { f.client.Credentials = saved }()
	f.client.Credentials = append(credential.Set{}, saved...)
	f.client.Credentials = append(f.client.Credentials, other)

	med := &Mediator{CredHints: map[string][]string{"R1": {"role"}, "R2": {"role"}}}
	r1, r2 := testRelations(t)
	s1 := &Source{Name: "S1", Catalog: algebra.MapCatalog{"R1": r1},
		Policies: map[string]*credential.Policy{"R1": policyFor("R1")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	s2 := &Source{Name: "S2", Catalog: algebra.MapCatalog{"R2": r2},
		Policies: map[string]*credential.Policy{"R2": policyFor("R2")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	n, err := NewNetwork(f.client, med, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.Query(fixtureSQL, ProtocolPlaintext, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != expectedJoin(t).Len() {
		t.Errorf("join size %d", got.Len())
	}
	// Direct check of the selection helper.
	sel := med.selectCredentials("R1", f.client.Credentials)
	if len(sel) != 1 || !sel[0].HasProperty("role", "analyst") {
		t.Errorf("selectCredentials forwarded %d credentials", len(sel))
	}
	selAll := med.selectCredentials("unhinted", f.client.Credentials)
	if len(selAll) != 2 {
		t.Errorf("unhinted relation got %d credentials, want all 2", len(selAll))
	}
}

func TestProtocolStrings(t *testing.T) {
	names := map[Protocol]string{
		ProtocolPlaintext: "plaintext", ProtocolMobileCode: "mobile-code",
		ProtocolDAS: "database-as-a-service", ProtocolCommutative: "commutative-encryption",
		ProtocolPM: "private-matching", Protocol(99): "unknown",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("Protocol(%d).String() = %q", p, p.String())
		}
	}
}

func TestParamsDefaultsAndGroups(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Partitions == 0 {
		t.Errorf("defaults not applied: %+v", p)
	}
}

// The mediated intersection (Agrawal's second operation) returns exactly
// the tuples common to two same-schema relations.
func TestMediatedIntersection(t *testing.T) {
	f := getFixture(t)
	schema1 := rel.MustSchema("A",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "tag", Kind: rel.KindString})
	schema2 := schema1.Rename("B")
	a := rel.MustFromTuples(schema1,
		rel.Tuple{rel.Int(1), rel.String_("x")},
		rel.Tuple{rel.Int(2), rel.String_("y")},
		rel.Tuple{rel.Int(2), rel.String_("y")}, // duplicate collapses
		rel.Tuple{rel.Int(3), rel.String_("z")})
	b := rel.MustFromTuples(schema2,
		rel.Tuple{rel.Int(2), rel.String_("y")},
		rel.Tuple{rel.Int(3), rel.String_("zz")}, // same id, different tag: no match
		rel.Tuple{rel.Int(4), rel.String_("w")})
	s1 := &Source{Name: "SA", Catalog: algebra.MapCatalog{"A": a},
		Policies: map[string]*credential.Policy{"A": policyFor("A")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	s2 := &Source{Name: "SB", Catalog: algebra.MapCatalog{"B": b},
		Policies: map[string]*credential.Policy{"B": policyFor("B")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	n, err := NewNetwork(f.client, &Mediator{}, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.Intersect("A", "B", fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Tuple(0)[0].AsInt() != 2 {
		t.Errorf("intersection = \n%v\nwant the single tuple (2, y)", got)
	}
}

func TestSelectDistinctQuery(t *testing.T) {
	n := newTestNetwork(t, nil)
	// Projecting to R2.city over the join yields duplicates (dortmund/essen
	// each joined against two R1 rows); DISTINCT collapses them.
	plain, err := n.Query("SELECT city FROM R1 JOIN R2 ON R1.id = R2.id", ProtocolCommutative, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	dist, err := n.Query("SELECT DISTINCT city FROM R1 JOIN R2 ON R1.id = R2.id", ProtocolCommutative, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != 5 || dist.Len() != 3 {
		t.Errorf("plain=%d distinct=%d, want 5/3\n%v\n%v", plain.Len(), dist.Len(), plain, dist)
	}
}

// The mediator and sources must handle concurrent sessions independently
// (each session gets fresh links and per-session state).
func TestConcurrentSessions(t *testing.T) {
	n := newTestNetwork(t, nil)
	want := expectedJoin(t)
	const parallel = 8
	errs := make(chan error, parallel)
	for i := 0; i < parallel; i++ {
		proto := []Protocol{ProtocolPlaintext, ProtocolDAS, ProtocolCommutative, ProtocolPM}[i%4]
		go func(p Protocol) {
			got, err := n.Query(fixtureSQL, p, fastParams())
			if err == nil && !got.EqualMultiset(want) {
				err = fmt.Errorf("%s: result differs from the plaintext join", p)
			}
			errs <- err
		}(proto)
	}
	for i := 0; i < parallel; i++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent session: %v", err)
		}
	}
}

// The union extension: same-schema relations from two sources, mediator
// concatenates ciphertext rows only.
func TestMediatedUnion(t *testing.T) {
	f := getFixture(t)
	schema := rel.MustSchema("A", rel.Column{Name: "k", Kind: rel.KindInt})
	a := rel.MustFromTuples(schema, rel.Tuple{rel.Int(1)}, rel.Tuple{rel.Int(2)}, rel.Tuple{rel.Int(2)})
	b := rel.MustFromTuples(schema.Rename("B"), rel.Tuple{rel.Int(2)}, rel.Tuple{rel.Int(3)})
	s1 := &Source{Name: "SA", Catalog: algebra.MapCatalog{"A": a},
		Policies: map[string]*credential.Policy{"A": policyFor("A")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	s2 := &Source{Name: "SB", Catalog: algebra.MapCatalog{"B": b},
		Policies: map[string]*credential.Policy{"B": policyFor("B")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	ledger := leakage.NewLedger()
	f.client.Ledger = ledger
	n, err := NewNetwork(f.client, &Mediator{Ledger: ledger}, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.Query("SELECT * FROM A UNION SELECT * FROM B", ProtocolCommutative, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 { // {1,2,3}
		t.Errorf("UNION = %d tuples, want 3\n%v", got.Len(), got)
	}
	gotAll, err := n.Query("SELECT * FROM A UNION ALL SELECT * FROM B", ProtocolCommutative, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if gotAll.Len() != 5 {
		t.Errorf("UNION ALL = %d tuples, want 5\n%v", gotAll.Len(), gotAll)
	}
	// Mediator saw only cardinalities.
	if v, _ := ledger.Observed(leakage.PartyMediator, "|R1|"); v != 3 {
		t.Errorf("mediator |R1| = %d", v)
	}
	// Incompatible schemas are rejected at the mediator.
	other := rel.MustFromTuples(rel.MustSchema("C", rel.Column{Name: "x", Kind: rel.KindString}))
	s3 := &Source{Name: "SC", Catalog: algebra.MapCatalog{"C": other},
		Policies: map[string]*credential.Policy{"C": policyFor("C")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	n2, err := NewNetwork(f.client, &Mediator{}, s1, s3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Query("SELECT * FROM A UNION SELECT * FROM C", ProtocolCommutative, fastParams()); err == nil {
		t.Error("incompatible UNION accepted")
	}
}
