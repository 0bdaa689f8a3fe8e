package mediation

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/transport"
)

// partialQueryTap records, per source link, the partial query the
// mediator ships and the type of every message on that link.
type partialQueryTap struct {
	mu       sync.Mutex
	partials map[string]PartialQuery
	types    map[string][]string
}

func newPartialQueryTap() *partialQueryTap {
	return &partialQueryTap{partials: map[string]PartialQuery{}, types: map[string][]string{}}
}

func (p *partialQueryTap) wrap(t *testing.T) func(link string, c transport.Conn) transport.Conn {
	return func(link string, c transport.Conn) transport.Conn {
		if link == "client" {
			return c
		}
		note := func(dir string) func(transport.Message) transport.Message {
			return func(m transport.Message) transport.Message {
				p.mu.Lock()
				defer p.mu.Unlock()
				p.types[link] = append(p.types[link], dir+" "+m.Type)
				if m.Type == msgPartialQuery {
					var pq PartialQuery
					decodeBody(t, m, &pq)
					p.partials[link] = pq
				}
				return m
			}
		}
		return &mediatorLinkConn{Conn: c, onSend: note("send"), onRecv: note("recv")}
	}
}

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
		// pmKey and homKey say whether the partial queries carry the
		// client's PM and Paillier keys.
		pmKey, homKey bool
	}{
		{
			name: "join", n: networkOver(t, nil, r1, r2), sql: fixtureSQL, proto: ProtocolPM, pmKey: true,
			links: map[string]want{
				"source:R1": {query: "SELECT * FROM R1", joinCols: []string{"id"}, proto: ProtocolPM},
				"source:R2": {query: "SELECT * FROM R2", joinCols: []string{"id"}, proto: ProtocolPM},
			},
		},
		{
			// The client's protocol choice does not apply to a union: it is
			// delivered as a mobile-code result, so no PM key is drawn.
			name: "union", n: networkOver(t, nil, r1, r1.Rename("R2")), proto: ProtocolPM,
			sql: "SELECT * FROM R1 UNION ALL SELECT * FROM R2",
			links: map[string]want{
				"source:R1": {query: "SELECT * FROM R1", proto: ProtocolMobileCode},
				"source:R2": {query: "SELECT * FROM R2", proto: ProtocolMobileCode},
			},
		},
		{
			// The WHERE clause stays in q_1: the source filters plaintext.
			name: "aggregate", n: aggNetwork(t, nil), proto: ProtocolPM, homKey: true,
			sql: "SELECT SUM(units) FROM Claims WHERE units > 3",
			links: map[string]want{
				"source:Claims": {query: "SELECT * FROM Claims WHERE units > 3", proto: ProtocolPM,
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
			tap := newPartialQueryTap()
			got, srcErrs, err := queryAtMediator(t, tc.n, tap.wrap(t), tc.sql, tc.proto, fastParams())
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
			if len(tap.partials) != len(tc.links) {
				t.Errorf("mediator contacted %d sources, want %d", len(tap.partials), len(tc.links))
			}
			for link, w := range tc.links {
				pq, ok := tap.partials[link]
				if !ok {
					t.Errorf("%s: no partial query", link)
					continue
				}
				if pq.Query != w.query || !reflect.DeepEqual(pq.JoinCols, w.joinCols) || pq.Protocol != w.proto ||
					!reflect.DeepEqual(pq.Aggregate, w.agg) || pq.Relation != strings.TrimPrefix(link, "source:") {
					t.Errorf("%s: partial query %q %v %v %+v for %s, want %q %v %v %+v",
						link, pq.Query, pq.JoinCols, pq.Protocol, pq.Aggregate, pq.Relation, w.query, w.joinCols, w.proto, w.agg)
				}
				if (pq.PMKey != nil) != tc.pmKey || (pq.HomomorphicKey != nil) != tc.homKey {
					t.Errorf("%s: PM key %v, homomorphic key %v; want %v, %v",
						link, pq.PMKey != nil, pq.HomomorphicKey != nil, tc.pmKey, tc.homKey)
				}
				if len(pq.Credentials) == 0 {
					t.Errorf("%s: no credentials forwarded", link)
				}
				// Steps 3 and 4 open every link, before any delivery message.
				if ty := tap.types[link]; len(ty) < 2 || ty[0] != "send "+msgPartialQuery || ty[1] != "recv "+msgPartialAck {
					t.Errorf("%s: link opens with %v", link, ty)
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
			dialed := 0
			_, _, err := queryAtMediator(t, denyR1(sh.rel2), func(link string, c transport.Conn) transport.Conn {
				if link != "client" {
					dialed++
				}
				return c
			}, sh.unknownSQL, ProtocolCommutative, fastParams())
			if err == nil || !strings.Contains(err.Error(), `unknown relation "RX"`) || dialed != 0 {
				t.Errorf("unknown relation: err = %v after %d dials", err, dialed)
			}

			tap := newPartialQueryTap()
			_, srcErrs, err := queryAtMediator(t, denyR1(sh.rel2), tap.wrap(t), sh.sql, ProtocolCommutative, fastParams())
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Party != "mediator" || !strings.Contains(err.Error(), "access to R1 denied") {
				t.Fatalf("denied: err = %v, want the mediator's denial", err)
			}
			if srcErrs["S1"] != nil {
				t.Errorf("denying source S1 failed: %v", srcErrs["S1"])
			}
			// Every source has unwound (queryAtMediator waited for them), and
			// the granted one was sent the reason.
			if ty := tap.types["source:R2"]; sh.name != "aggregate" &&
				(len(ty) != 3 || ty[2] != "send "+msgError) {
				t.Errorf("granted source's link carried %v, want the partial query, its ack and the abort", ty)
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
	view := func(r1, r2 *rel.Relation, sql string, proto Protocol, withLength bool) ([]string, *rel.Relation) {
		var mu sync.Mutex
		var out []string
		record := func(link, dir string) func(transport.Message) transport.Message {
			return func(m transport.Message) transport.Message {
				entry := fmt.Sprintf("%s %s %s", link, dir, m.Type)
				if withLength {
					entry += fmt.Sprintf(" %d", len(m.Body))
				}
				mu.Lock()
				out = append(out, entry)
				mu.Unlock()
				return m
			}
		}
		got, srcErrs, err := queryAtMediator(t, networkOver(t, nil, r1, r2), func(link string, c transport.Conn) transport.Conn {
			return &mediatorLinkConn{Conn: c, onSend: record(link, "send"), onRecv: record(link, "recv")}
		}, sql, proto, fastParams())
		if err != nil || srcErrs["S1"] != nil || srcErrs["S2"] != nil {
			t.Fatalf("%s: %v, sources: %v", sql, err, srcErrs)
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
