package mediation

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
)

// Listing 1 runs once for every query shape: a join, a union and an
// aggregate each get their partial queries from the same request phase,
// and differ only in what those partial queries carry.
func TestRequestPhase(t *testing.T) {
	r1, r2 := testRelations(t)
	type want struct {
		query    string
		joinCols []string
		proto    Protocol
		agg      *sqlparse.AggregateSpec
	}
	cases := []struct {
		name  string
		n     *Network
		sql   string
		proto Protocol
		links map[string]want
	}{
		{
			name: "join", n: networkOver(t, nil, r1, r2), sql: fixtureSQL, proto: ProtocolPM,
			links: map[string]want{
				"source:R1": {query: "SELECT * FROM R1", joinCols: []string{"id"}, proto: ProtocolPM},
				"source:R2": {query: "SELECT * FROM R2", joinCols: []string{"id"}, proto: ProtocolPM},
			},
		},
		{
			// The client's protocol choice does not apply to a union: it is
			// delivered as a mobile-code result.
			name: "union", n: networkOver(t, nil, r1, r1.Rename("R2")), proto: ProtocolPM,
			sql: "SELECT * FROM R1 UNION ALL SELECT * FROM R2",
			links: map[string]want{
				"source:R1": {query: "SELECT * FROM R1", proto: ProtocolMobileCode},
				"source:R2": {query: "SELECT * FROM R2", proto: ProtocolMobileCode},
			},
		},
		{
			// The WHERE clause stays in q_1: the source filters plaintext. An
			// aggregate, too, is delivered as a mobile-code result.
			name: "aggregate", n: aggNetwork(t, nil), proto: ProtocolPM,
			sql: "SELECT SUM(units) FROM Claims WHERE units > 3",
			links: map[string]want{
				"source:Claims": {query: "SELECT * FROM Claims WHERE units > 3", proto: ProtocolMobileCode,
					agg: &sqlparse.AggregateSpec{Func: "SUM", Column: "units"}},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.n.Query(tc.sql, ProtocolPlaintext, fastParams())
			if err != nil {
				t.Fatal(err)
			}
			var tr transcript
			got, srcErrs, err := tap{log: &tr}.query(t, tc.n, tc.sql, tc.proto, fastParams())
			if err != nil {
				t.Fatal(err)
			}
			for src, serr := range srcErrs {
				if serr != nil {
					t.Errorf("source %s: %v", src, serr)
				}
			}
			if !got.EqualMultiset(want) {
				t.Errorf("result\n%v\nwant\n%v", got, want)
			}
			partials := map[string]PartialQuery{}
			for _, f := range tr.on("") {
				if f.Type == msgPartialQuery {
					var pq PartialQuery
					decodeBody(t, f.Message, &pq)
					partials[f.link] = pq
				}
			}
			if len(partials) != len(tc.links) {
				t.Errorf("mediator contacted %d sources, want %d", len(partials), len(tc.links))
			}
			for link, w := range tc.links {
				pq, ok := partials[link]
				if !ok {
					t.Errorf("%s: no partial query", link)
					continue
				}
				if pq.Query != w.query || !reflect.DeepEqual(pq.JoinCols, w.joinCols) || pq.Protocol != w.proto ||
					!reflect.DeepEqual(pq.Aggregate, w.agg) || pq.Relation != strings.TrimPrefix(link, "source:") {
					t.Errorf("%s: partial query %q %v %v %+v for %s, want %q %v %v %+v",
						link, pq.Query, pq.JoinCols, pq.Protocol, pq.Aggregate, pq.Relation, w.query, w.joinCols, w.proto, w.agg)
				}
				if len(pq.QueryKey) != hybrid.PointSize || len(pq.QueryKeySig) == 0 {
					t.Errorf("%s: query key %d B signed by %d B, want %d B signed",
						link, len(pq.QueryKey), len(pq.QueryKeySig), hybrid.PointSize)
				}
				if len(pq.Credentials) == 0 {
					t.Errorf("%s: no credentials forwarded", link)
				}
				// Steps 3 and 4 open every link, before any delivery message.
				if fs := tr.on(link); len(fs) < 2 || fs[0].dir != "send" || fs[0].Type != msgPartialQuery ||
					fs[1].dir != "recv" || fs[1].Type != msgPartialAck {
					t.Errorf("%s: link opens with %v", link, fs)
				}
			}
		})
	}
}

// Every query shape fails the request phase the same way: an unknown
// relation before any source is dialed, a denial after every source has
// answered — and the granted source is told, not left on a dead link.
func TestRequestPhaseRejects(t *testing.T) {
	f := getFixture(t)
	r1, r2 := testRelations(t)
	denyR1 := func(rel2 *rel.Relation) *Network {
		source := func(name, relName string, r *rel.Relation, pol *credential.Policy) *Source {
			return &Source{Name: name, Catalog: algebra.MapCatalog{relName: r},
				Policies: map[string]*credential.Policy{relName: pol}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
		}
		auditors := &credential.Policy{Relation: "R1",
			Require: []credential.Requirement{{Property: credential.Property{Name: "role", Value: "auditor"}}}}
		n, err := NewNetwork(f.client, &Mediator{}, source("S1", "R1", r1, auditors), source("S2", "R2", rel2, policyFor("R2")))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	shapes := []struct {
		name, sql, unknownSQL string
		rel2                  *rel.Relation
	}{
		{"join", fixtureSQL, "SELECT * FROM R1 JOIN RX ON R1.id = RX.id", r2},
		{"union", "SELECT * FROM R1 UNION SELECT * FROM R2", "SELECT * FROM R1 UNION SELECT * FROM RX", r1.Rename("R2")},
		{"aggregate", "SELECT COUNT(*) FROM R1", "SELECT COUNT(*) FROM RX", r2},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			// query holds an error, nil or not, for each source dialed.
			_, srcErrs, err := tap{}.query(t, denyR1(sh.rel2), sh.unknownSQL, ProtocolCommutative, fastParams())
			if err == nil || !strings.Contains(err.Error(), `unknown relation "RX"`) || len(srcErrs) != 0 {
				t.Errorf("unknown relation: err = %v after %d dials", err, len(srcErrs))
			}

			var tr transcript
			_, srcErrs, err = tap{log: &tr}.query(t, denyR1(sh.rel2), sh.sql, ProtocolCommutative, fastParams())
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Party != "mediator" || !strings.Contains(err.Error(), "access to R1 denied") {
				t.Fatalf("denied: err = %v, want the mediator's denial", err)
			}
			if srcErrs["S1"] != nil {
				t.Errorf("denying source S1 failed: %v", srcErrs["S1"])
			}
			// Every source has unwound (query waited for them), and the
			// granted one was sent the reason.
			if fs := tr.on("source:R2"); sh.name != "aggregate" &&
				(len(fs) != 3 || fs[2].dir != "send" || fs[2].Type != "mmm.error") {
				t.Errorf("granted source's link carried %v, want the partial query, its ack and the abort", fs)
			}
		})
	}
}

// A union is a mobile-code session: the mediator's links carry exactly the
// message types of a mobile-code join over the same relations, and its
// view is a function of the two cardinalities and the row length — two
// inputs that agree on those but not on values look the same.
func TestUnionMediatorViewShape(t *testing.T) {
	schema := rel.MustSchema("R1", rel.Column{Name: "id", Kind: rel.KindInt}, rel.Column{Name: "name", Kind: rel.KindString})
	build := func(name, text string, ids ...int64) *rel.Relation {
		r := rel.New(schema.Rename(name))
		for _, id := range ids {
			r.MustAppend(rel.Tuple{rel.Int(id), rel.String_(text)})
		}
		return r
	}
	inputs := [][2]*rel.Relation{
		{build("R1", "aaaa", 1, 2, 3), build("R2", "bbbb", 2, 3)},
		{build("R1", "wxyz", 41, 42, 43), build("R2", "qrst", 51, 52)},
	}
	// view runs sql over r1 and r2 and returns the mediator's view lines,
	// without their lengths unless withLength is set. The query and every
	// source must succeed.
	view := func(r1, r2 *rel.Relation, sql string, proto Protocol, withLength bool) ([]string, *rel.Relation) {
		var tr transcript
		got, srcErrs, err := tap{log: &tr}.query(t, networkOver(t, nil, r1, r2), sql, proto, fastParams())
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for src, serr := range srcErrs {
			if serr != nil {
				t.Fatalf("%s: source %s: %v", sql, src, serr)
			}
		}
		var out []string
		for _, f := range tr.on("") {
			line := f.String()
			if !withLength {
				line = f.link + " " + f.dir + " " + f.Type
			}
			out = append(out, line)
		}
		return out, got
	}
	const unionSQL = "SELECT * FROM R1 UNION ALL SELECT * FROM R2"
	var views [2][]string
	for i, in := range inputs {
		var got *rel.Relation
		views[i], got = view(in[0], in[1], unionSQL, ProtocolCommutative, true)
		if got.Len() != 5 {
			t.Errorf("input %d: union has %d rows, want 5", i, got.Len())
		}
	}
	if fmt.Sprint(views[0]) != fmt.Sprint(views[1]) {
		t.Errorf("mediator views differ:\n%v\n%v", views[0], views[1])
	}
	unionTypes, _ := view(inputs[0][0], inputs[0][1], unionSQL, ProtocolCommutative, false)
	joinTypes, _ := view(inputs[0][0], inputs[0][1], fixtureSQL, ProtocolMobileCode, false)
	if fmt.Sprint(unionTypes) != fmt.Sprint(joinTypes) {
		t.Errorf("union transcript is not a mobile-code join transcript:\n%v\n%v", unionTypes, joinTypes)
	}
}
