package mediation

import (
	"errors"
	"fmt"
	"math"
	"strings"
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

// queryDASTampered runs the fixture DAS query with tamper applied to the
// client's inbound das.result, and checks that the query ends in a
// terminal *ProtocolError blamed on the client's post-filter.
func queryDASTampered(t *testing.T, tamper func(*dasResult)) *ProtocolError {
	t.Helper()
	_, err := queryDASVisiting(t, newTestNetwork(t, nil), fixtureSQL, fastParams(), func(res *dasResult, _ int) { tamper(res) })
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *ProtocolError", err)
	}
	if pe.Party != leakage.PartyClient || pe.Phase != telemetry.PhasePostFilter {
		t.Errorf("blamed %s/%s, want %s/%s", pe.Party, pe.Phase, leakage.PartyClient, telemetry.PhasePostFilter)
	}
	if resilience.Retryable(err) {
		t.Errorf("tampered das.result classified retryable: %v", err)
	}
	return pe
}

// A mediator cannot forge an etuple, but it could replay one to inflate
// the client's join: a das.result that repeats an etuple aborts the query.
func TestDASResultDuplicateEtupleAborts(t *testing.T) {
	pe := queryDASTampered(t, func(res *dasResult) {
		if len(res.E1) < 2 {
			t.Fatalf("fixture ships %d R1 etuples, need 2", len(res.E1))
		}
		res.E1[1] = res.E1[0]
	})
	if !strings.Contains(pe.Error(), "repeats an etuple") {
		t.Errorf("err = %v, want the repeated etuple named", pe)
	}
}

// A das.result whose Size no set of pairs over its tables could have
// aborts the query.
func TestDASResultBadSizeAborts(t *testing.T) {
	for _, tc := range []struct {
		name string
		size func(res *dasResult) int
	}{
		{"above |E1|·|E2|", func(res *dasResult) int { return len(res.E1)*len(res.E2) + 1 }},
		{"below |E1|", func(res *dasResult) int { return len(res.E1) - 1 }},
		{"negative", func(*dasResult) int { return -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pe := queryDASTampered(t, func(res *dasResult) { res.Size = tc.size(res) })
			if !strings.Contains(pe.Error(), "claims") {
				t.Errorf("err = %v, want the claimed Size named", pe)
			}
		})
	}
}

// dasResultShape is what a tap on das.result measures.
type dasResultShape struct {
	body, etupleBytes, etuples, size int
}

func (s *dasResultShape) visit(res *dasResult, bodyBytes int) {
	s.body, s.size = bodyBytes, res.Size
	s.etuples = len(res.E1) + len(res.E2)
	for _, e := range append(append([][]byte(nil), res.E1...), res.E2...) {
		s.etupleBytes += len(e)
	}
}

// The client's decryption work and the das.result frame are linear in
// |R1|+|R2|, not in |R_C|: a fat join whose superset is several times the
// join must still open each etuple once and ship it once, with no bytes
// per pair.
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
	var shape dasResultShape
	got, err := queryDASVisiting(t, n, fixtureSQL, Params{}, shape.visit)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 40 {
		t.Fatalf("join has %d rows, want 40", got.Len())
	}
	superset, _ := ledger.Observed(leakage.PartyClient, "superset-size")
	if superset != 260 {
		t.Fatalf("superset %d, want 260: the fixture no longer exercises the quadratic", superset)
	}
	if discarded, _ := ledger.Observed(leakage.PartyClient, "false-positives-discarded"); discarded != superset-int64(got.Len()) {
		t.Errorf("%d false positives discarded, want %d − %d", discarded, superset, got.Len())
	}
	opens := reg.OpDeltas()["hybrid.open"]
	t.Logf("join %d, superset %d, hybrid.open %d, das.result %d B (%d B of etuples)", got.Len(), superset, opens, shape.body, shape.etupleBytes)
	// Every etuple once, plus the two index tables.
	if limit := int64(r1.Len() + r2.Len() + 2); opens > limit {
		t.Errorf("%d hybrid.open calls for |R1|+|R2|+2 = %d (superset %d)", opens, limit, superset)
	}
	if opens != int64(shape.etuples+2) {
		t.Errorf("%d hybrid.open calls, result tables hold %d etuples", opens, shape.etuples)
	}
	if c := ledger.PrimitiveCount(leakage.PartyClient, "hybrid-decryption"); c != int64(shape.etuples) {
		t.Errorf("ledger records %d hybrid decryptions, %d etuples were opened", c, shape.etuples)
	}
	// Beyond the etuples themselves, a frame carries a few bytes of
	// framing per etuple and a fixed envelope.
	if overhead, limit := shape.body-shape.etupleBytes, 4*shape.etuples+512; overhead > limit {
		t.Errorf("das.result carries %d bytes beside its %d etuples (limit %d)", overhead, shape.etuples, limit)
	}
}

// The das.result frame does not grow with |R_C|: the same surviving
// etuples under a superset 20× larger make a frame of the same size, up
// to the varint that holds |R_C|.
func TestDASResultSizeIndependentOfSuperset(t *testing.T) {
	// Every R1 id occurs in R2, so every etuple survives at any
	// granularity: 20 equi-width partitions match exactly, one partition
	// pairs everything.
	s1, s2 := testRelations(t)
	r1, r2 := rel.New(s1.Schema()), rel.New(s2.Schema())
	for i := 0; i < 20; i++ {
		r1.MustAppend(rel.Tuple{rel.Int(int64(i)), rel.String_("name")})
		for j := 0; j < 10; j++ {
			r2.MustAppend(rel.Tuple{rel.Int(int64(i)), rel.String_("city")})
		}
	}
	shapes := map[int]*dasResultShape{}
	for _, k := range []int{1, 20} {
		shapes[k] = &dasResultShape{}
		got, err := queryDASVisiting(t, networkOver(t, nil, r1, r2), fixtureSQL,
			Params{Partitions: k, Strategy: das.EquiWidth}, shapes[k].visit)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 200 {
			t.Fatalf("k=%d: join has %d rows, want 200", k, got.Len())
		}
	}
	coarse, fine := shapes[1], shapes[20]
	t.Logf("|R_C| %d vs %d: das.result %d B vs %d B", coarse.size, fine.size, coarse.body, fine.body)
	if coarse.etuples != fine.etuples || coarse.etupleBytes != fine.etupleBytes {
		t.Fatalf("surviving etuples differ (%d/%d B vs %d/%d B); the fixture no longer holds them fixed",
			coarse.etuples, coarse.etupleBytes, fine.etuples, fine.etupleBytes)
	}
	if coarse.size < 4*fine.size {
		t.Fatalf("|R_C| %d vs %d differ by less than 4×", coarse.size, fine.size)
	}
	if d := coarse.body - fine.body; d < -8 || d > 8 {
		t.Errorf("das.result is %d B at |R_C| = %d and %d B at |R_C| = %d", coarse.body, coarse.size, fine.body, fine.size)
	}
}

// DAS joins FLOAT keys exactly as the plaintext protocol does, by
// canonical encoding: NaN meets NaN and 0 does not meet −0, under every
// partitioning strategy.
func TestDASFloatKeysMatchPlaintext(t *testing.T) {
	floats := func(name string, vals ...float64) *rel.Relation {
		r := rel.New(rel.MustSchema(name,
			rel.Column{Name: "id", Kind: rel.KindFloat},
			rel.Column{Name: "tag", Kind: rel.KindString}))
		for i, v := range vals {
			r.MustAppend(rel.Tuple{rel.Float(v), rel.String_(fmt.Sprintf("%s-%d", name, i))})
		}
		return r
	}
	r1 := floats("R1", math.NaN(), 0, 1.5, 2)
	r2 := floats("R2", math.NaN(), math.Copysign(0, -1), 1.5, 3)
	want, err := networkOver(t, nil, r1, r2).Query(fixtureSQL, ProtocolPlaintext, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 2 {
		t.Fatalf("plaintext join has %d rows, want (NaN, NaN) and (1.5, 1.5)", want.Len())
	}
	for _, strategy := range []das.Strategy{das.EquiWidth, das.EquiDepth, das.HashBuckets} {
		params := fastParams()
		params.Strategy = strategy
		got, err := networkOver(t, nil, r1, r2).Query(fixtureSQL, ProtocolDAS, params)
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		// EqualMultiset compares with Value.Equal, under which NaN ≠ NaN.
		if got.Clone().Sort().String() != want.Clone().Sort().String() {
			t.Errorf("%v: got\n%v\nwant\n%v", strategy, got, want)
		}
	}
}
