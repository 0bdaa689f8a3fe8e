package mediation

import (
	"errors"
	"testing"

	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/leakage"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// dasResultConn sits on the client's end of the client–mediator link and
// shows every das.result to visit before delivering it (as visit left it):
// a tap when visit only reads, a deviating mediator when it writes.
type dasResultConn struct {
	transport.Conn
	visit func(res *dasResult, bodyBytes int)
}

func (c *dasResultConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil || m.Type != msgDASResult {
		return m, err
	}
	payload, err := transport.Payload(m)
	if err != nil {
		return m, err
	}
	var res dasResult
	if err := transport.Decode(payload, &res); err != nil {
		return m, err
	}
	c.visit(&res, len(m.Body))
	return transport.NewMessage(m.Type, res)
}

// queryDASVisiting runs one DAS query over n with visit on the client's
// inbound das.result.
func queryDASVisiting(t *testing.T, n *Network, sql string, params Params, visit func(*dasResult, int)) (*rel.Relation, error) {
	t.Helper()
	return queryOver(t, n, func(c transport.Conn) transport.Conn {
		return &dasResultConn{Conn: c, visit: visit}
	}, sql, ProtocolDAS, params)
}

// An empty partial result on either side is an empty join, as in
// algebra.EquiJoin — not a protocol failure for want of an active domain.
func TestDASEmptyPartialResult(t *testing.T) {
	full1, full2 := testRelations(t)
	empty1, empty2 := rel.New(full1.Schema()), rel.New(full2.Schema())
	cases := []struct {
		name   string
		r1, r2 *rel.Relation
	}{
		{"left empty", empty1, full2},
		{"right empty", full1, empty2},
		{"both empty", empty1, empty2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := networkOver(t, nil, tc.r1, tc.r2).Query(fixtureSQL, ProtocolPlaintext, fastParams())
			if err != nil {
				t.Fatal(err)
			}
			for _, strategy := range []das.Strategy{das.EquiWidth, das.EquiDepth, das.HashBuckets} {
				n := networkOver(t, nil, tc.r1, tc.r2)
				params := fastParams()
				params.Strategy = strategy
				got, err := n.Query(fixtureSQL, ProtocolDAS, params)
				if err != nil {
					t.Fatalf("%v: %v", strategy, err)
				}
				if got.Len() != 0 || !got.EqualMultiset(want) {
					t.Errorf("%v: got\n%v\nwant the empty\n%v", strategy, got, want)
				}
				if errs := n.SourceErrors(); len(errs) != 0 {
					t.Errorf("%v: source errors: %v", strategy, errs)
				}
			}
		})
	}
}

// A das.result whose pairs point outside its tables aborts the query with
// a terminal *ProtocolError at the client.
func TestDASResultBadSlotAborts(t *testing.T) {
	n := newTestNetwork(t, nil)
	_, err := queryDASVisiting(t, n, fixtureSQL, fastParams(), func(res *dasResult, _ int) {
		res.Result.Pairs[0].J = uint32(len(res.Result.E2))
	})
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *ProtocolError", err)
	}
	if pe.Party != leakage.PartyClient || pe.Phase != telemetry.PhasePostFilter {
		t.Errorf("blamed %s/%s, want %s/%s", pe.Party, pe.Phase, leakage.PartyClient, telemetry.PhasePostFilter)
	}
	if resilience.Retryable(err) {
		t.Errorf("out-of-range slot classified retryable: %v", err)
	}
}

// The client's decryption work and the das.result frame are linear in
// |R1|+|R2|, not in |R_C|: a fat join whose superset is several times the
// join must still open each etuple once and ship it once.
func TestDASClientOpensLinear(t *testing.T) {
	// R1: ids 0..19, one row each. R2: ids 0, 5, …, 95, ten rows each.
	// Sixteen equi-width partitions per side make R2's wide partitions
	// overlap several of R1's narrow ones.
	s1, s2 := testRelations(t)
	r1, r2 := rel.New(s1.Schema()), rel.New(s2.Schema())
	for i := 0; i < 20; i++ {
		r1.MustAppend(rel.Tuple{rel.Int(int64(i)), rel.String_("name")})
		for j := 0; j < 10; j++ {
			r2.MustAppend(rel.Tuple{rel.Int(int64(5 * i)), rel.String_("city")})
		}
	}
	ledger := leakage.NewLedger()
	n := networkOver(t, ledger, r1, r2)
	reg := telemetry.NewRegistry()
	var body, inline, etuples int
	got, err := queryDASVisiting(t, n, fixtureSQL, Params{}, func(res *dasResult, bodyBytes int) {
		body = bodyBytes
		etuples = len(res.Result.E1) + len(res.Result.E2)
		for _, p := range res.Result.Pairs {
			inline += len(res.Result.E1[p.I]) + len(res.Result.E2[p.J])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 40 {
		t.Fatalf("join has %d rows, want 40", got.Len())
	}
	superset, _ := ledger.Observed(leakage.PartyClient, "superset-size")
	if superset <= 5*int64(got.Len()) {
		t.Fatalf("superset %d is not > 5 × the %d-row join; the fixture no longer exercises the quadratic", superset, got.Len())
	}
	opens := reg.OpDeltas()["hybrid.open"]
	t.Logf("join %d, superset %d, hybrid.open %d, das.result %d B (inline pairs: %d B)", got.Len(), superset, opens, body, inline)
	// Every etuple once, plus the two index tables.
	if limit := int64(r1.Len() + r2.Len() + 2); opens > limit {
		t.Errorf("%d hybrid.open calls for |R1|+|R2|+2 = %d (superset %d)", opens, limit, superset)
	}
	if opens != int64(etuples+2) {
		t.Errorf("%d hybrid.open calls, result tables hold %d etuples", opens, etuples)
	}
	if c := ledger.PrimitiveCount(leakage.PartyClient, "hybrid-decryption"); c != int64(etuples) {
		t.Errorf("ledger records %d hybrid decryptions, %d etuples were opened", c, etuples)
	}
	if 4*body >= inline {
		t.Errorf("das.result body is %d bytes; inlining both etuples per pair would be %d", body, inline)
	}
}
