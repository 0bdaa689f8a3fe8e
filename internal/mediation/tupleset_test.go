package mediation

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/crypto/commutative"
	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/transport"
	"github.com/secmediation/secmediation/internal/workload"
)

// sortedLines renders a relation as its sorted String() lines: equal
// exactly when the two hold the same rows bit for bit, whatever their
// order, so a −0 or NaN key that came back as anything else shows.
func sortedLines(r *rel.Relation) string {
	lines := strings.Split(r.String(), "\n")
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// TestTupLayout pins how join columns become a tuple set's fixed
// positions: distinct, ascending, none when they cover every column; the
// key keeps JoinCols order, duplicates included.
func TestTupLayout(t *testing.T) {
	s := rel.MustSchema("R", rel.Column{Name: "a", Kind: rel.KindInt}, rel.Column{Name: "b", Kind: rel.KindString},
		rel.Column{Name: "c", Kind: rel.KindFloat})
	cases := []struct {
		cols       []string
		key, fixed []int
	}{
		{[]string{"a"}, []int{0}, []int{0}},
		{[]string{"c", "b"}, []int{2, 1}, []int{1, 2}},
		{[]string{"a", "a"}, []int{0, 0}, []int{0}},
		{[]string{"R.c", "a"}, []int{2, 0}, []int{0, 2}},
		{[]string{"c", "a", "b"}, []int{2, 0, 1}, nil},
	}
	for _, c := range cases {
		l, err := newTupLayout(s, c.cols, "t")
		if err != nil {
			t.Fatalf("%v: %v", c.cols, err)
		}
		if !slices.Equal(l.key, c.key) || !slices.Equal(l.fixed, c.fixed) {
			t.Errorf("%v: key %v fixed %v, want %v and %v", c.cols, l.key, l.fixed, c.key, c.fixed)
		}
	}
	for _, cols := range [][]string{nil, {"nope"}, {"a", "R2.b"}} {
		if _, err := newTupLayout(s, cols, "t"); err == nil {
			t.Errorf("%v resolved", cols)
		}
	}
	// Key positions that differ only in order still bind different AADs.
	l1, _ := newTupLayout(s, []string{"a", "c"}, "t")
	l2, _ := newTupLayout(s, []string{"c", "a"}, "t")
	if string(l1.aad) == string(l2.aad) {
		t.Error("reordered join columns share an AAD")
	}
}

// The commutative protocol and PM write
// the join key once per tuple set and copy it back into every row. The
// result must be the plaintext join bit for bit: FLOAT NaN, −0 and +0
// keys, TEXT keys down to the empty string, a two-column key named out of
// schema order, a join column named twice, a NATURAL JOIN, and the
// all-columns path that fixes nothing (a NATURAL JOIN of equal schemas,
// and Intersect).
func TestFactoredKeysBitExact(t *testing.T) {
	col := func(name string, k rel.Kind) rel.Column { return rel.Column{Name: name, Kind: k} }
	negZero := math.Copysign(0, -1)
	floatsAs := func(name, tag string, keys ...float64) *rel.Relation {
		r := rel.New(rel.MustSchema(name, col("id", rel.KindFloat), col(tag, rel.KindString)))
		for i, k := range keys {
			r.MustAppend(rel.Tuple{rel.Float(k), rel.String_(name + "-" + string(rune('a'+i)))})
		}
		return r
	}
	floats := func(name string, keys ...float64) *rel.Relation { return floatsAs(name, "tag", keys...) }
	texts := func(name string, keys ...string) *rel.Relation {
		r := rel.New(rel.MustSchema(name, col("k", rel.KindString), col("n", rel.KindInt), col("f", rel.KindFloat)))
		for i, k := range keys {
			r.MustAppend(rel.Tuple{rel.String_(k), rel.Int(int64(i)), rel.Float(float64(i) / 3)})
		}
		return r
	}
	// R1(a INT, b TEXT, c INT) and R2(x TEXT, y INT, z BOOL).
	pairs1 := rel.MustFromTuples(rel.MustSchema("R1", col("a", rel.KindInt), col("b", rel.KindString), col("c", rel.KindInt)),
		rel.Tuple{rel.Int(1), rel.String_("p"), rel.Int(10)}, rel.Tuple{rel.Int(2), rel.String_("p"), rel.Int(10)},
		rel.Tuple{rel.Int(3), rel.String_("q"), rel.Int(10)}, rel.Tuple{rel.Int(4), rel.String_(""), rel.Int(-1)},
		rel.Tuple{rel.Int(5), rel.String_(""), rel.Int(-1)})
	pairs2 := rel.MustFromTuples(rel.MustSchema("R2", col("x", rel.KindString), col("y", rel.KindInt), col("z", rel.KindBool)),
		rel.Tuple{rel.String_("p"), rel.Int(10), rel.Bool(true)}, rel.Tuple{rel.String_("p"), rel.Int(10), rel.Bool(false)},
		rel.Tuple{rel.String_("q"), rel.Int(11), rel.Bool(true)}, rel.Tuple{rel.String_(""), rel.Int(-1), rel.Bool(true)})
	// R2.a = R2.b on some rows, so "R1.a = R2.a AND R1.a = R2.b" matches.
	twice1 := rel.MustFromTuples(rel.MustSchema("R1", col("a", rel.KindInt), col("v", rel.KindString)),
		rel.Tuple{rel.Int(1), rel.String_("one")}, rel.Tuple{rel.Int(1), rel.String_("uno")}, rel.Tuple{rel.Int(2), rel.String_("two")})
	twice2 := rel.MustFromTuples(rel.MustSchema("R2", col("a", rel.KindInt), col("b", rel.KindInt), col("w", rel.KindBool)),
		rel.Tuple{rel.Int(1), rel.Int(1), rel.Bool(true)}, rel.Tuple{rel.Int(1), rel.Int(1), rel.Bool(false)},
		rel.Tuple{rel.Int(2), rel.Int(3), rel.Bool(true)})
	same := rel.MustSchema("R1", col("id", rel.KindFloat), col("name", rel.KindString))
	equal1 := rel.MustFromTuples(same,
		rel.Tuple{rel.Float(math.NaN()), rel.String_("")}, rel.Tuple{rel.Float(negZero), rel.String_("z")},
		rel.Tuple{rel.Float(0), rel.String_("z")}, rel.Tuple{rel.Float(1), rel.String_("x")}, rel.Tuple{rel.Float(1), rel.String_("x")})
	equal2 := rel.MustFromTuples(same.Rename("R2"),
		rel.Tuple{rel.Float(math.NaN()), rel.String_("")}, rel.Tuple{rel.Float(0), rel.String_("z")},
		rel.Tuple{rel.Float(1), rel.String_("x")}, rel.Tuple{rel.Float(2), rel.String_("y")})
	cases := []struct {
		name   string
		r1, r2 *rel.Relation
		sql    string
	}{
		{"float keys", floats("R1", math.NaN(), math.NaN(), 0, negZero, negZero, 1.5),
			floats("R2", math.NaN(), negZero, 0, 0, 1.5, 3), fixtureSQL},
		{"text keys", texts("R1", "", "", "a", "b", "b"), texts("R2", "", "a", "a", "c"),
			"SELECT * FROM R1 JOIN R2 ON R1.k = R2.k"},
		{"two columns out of order", pairs1, pairs2, "SELECT * FROM R1 JOIN R2 ON R1.c = R2.y AND R1.b = R2.x"},
		{"column named twice", twice1, twice2, "SELECT * FROM R1 JOIN R2 ON R1.a = R2.a AND R1.a = R2.b"},
		{"natural join", floats("R1", math.NaN(), negZero, 0, 0), floatsAs("R2", "city", math.NaN(), 0, negZero, negZero),
			"SELECT * FROM R1 NATURAL JOIN R2"},
		{"natural join of equal schemas", equal1, equal2, "SELECT * FROM R1 NATURAL JOIN R2"},
	}
	protos := []struct {
		name   string
		proto  Protocol
		params Params
	}{
		{"commutative", ProtocolCommutative, fastParams()},
		{"pm", ProtocolPM, fastParams()},
	}
	for _, c := range cases {
		want, err := networkOver(t, nil, c.r1, c.r2).Query(c.sql, ProtocolPlaintext, fastParams())
		if err != nil {
			t.Fatalf("%s: plaintext: %v", c.name, err)
		}
		if want.Len() == 0 {
			t.Fatalf("%s: the plaintext join is empty", c.name)
		}
		for _, p := range protos {
			t.Run(c.name+"/"+p.name, func(t *testing.T) {
				got, err := networkOver(t, nil, c.r1, c.r2).Query(c.sql, p.proto, p.params)
				if err != nil {
					t.Fatal(err)
				}
				if sortedLines(got) != sortedLines(want) {
					t.Errorf("got\n%v\nwant\n%v", got, want)
				}
			})
		}
	}
	t.Run("intersect", func(t *testing.T) {
		join, err := networkOver(t, nil, equal1, equal2).Query("SELECT * FROM R1 NATURAL JOIN R2", ProtocolPlaintext, fastParams())
		if err != nil {
			t.Fatal(err)
		}
		want := algebra.Distinct(join)
		got, err := networkOver(t, nil, equal1, equal2).Intersect("R1", "R2", fastParams())
		if err != nil {
			t.Fatal(err)
		}
		if sortedLines(got) != sortedLines(want) {
			t.Errorf("got\n%v\nwant\n%v", got, want)
		}
	})
}

// A relayed JoinCols the client cannot resolve — an unknown column, or a
// column repeated so the two lists no longer pair up — ends the query in
// a *ProtocolError, not a panic or a result.
func TestRelayedJoinColsUnresolvable(t *testing.T) {
	rewrites := []struct {
		name         string
		cols1, cols2 []string
	}{
		{"unknown", []string{"nope"}, []string{"id"}},
		{"duplicated", []string{"id", "id"}, []string{"id"}},
		{"empty", nil, nil},
	}
	for _, proto := range []Protocol{ProtocolCommutative, ProtocolPM} {
		for _, rw := range rewrites {
			t.Run(proto.String()+"/"+rw.name, func(t *testing.T) {
				got, _, err := queryAtMediator(t, newTestNetwork(t, nil), func(link string, c transport.Conn) transport.Conn {
					if link != "client" {
						return c
					}
					return &mediatorLinkConn{Conn: c, onSend: func(m transport.Message) transport.Message {
						return rewriteJoinCols(t, m, func(c1, c2 *[]string) { *c1, *c2 = rw.cols1, rw.cols2 })
					}}
				}, fixtureSQL, proto, fastParams())
				var pe *ProtocolError
				if !errors.As(err, &pe) {
					t.Fatalf("query returned %v, %v; want a *ProtocolError", got, err)
				}
				t.Logf("aborted: %v", err)
			})
		}
	}
}

// rewriteJoinCols applies edit to the JoinCols of a comm.result or
// pm.result and re-encodes it; other messages pass unchanged.
func rewriteJoinCols(t *testing.T, m transport.Message, edit func(c1, c2 *[]string)) transport.Message {
	t.Helper()
	var v any
	switch m.Type {
	case msgCommResult:
		var r commResult
		decodeBody(t, m, &r)
		edit(&r.JoinCols1, &r.JoinCols2)
		v = r
	case msgPMResult:
		var r pmResult
		decodeBody(t, m, &r)
		edit(&r.JoinCols1, &r.JoinCols2)
		v = r
	default:
		return m
	}
	out, err := transport.NewMessage(m.Type, v)
	if err != nil {
		t.Errorf("re-encoding %s: %v", m.Type, err)
	}
	return out
}

// benchRelations builds a benchmark workload's relations as the
// benchmark harness does: Mult layers of a workload.JoinSpec with keys1
// and keys2 distinct keys, so every R1 key holds mult1 rows and every R2
// key mult2, each with one 16-byte TEXT payload.
func benchRelations(t *testing.T, keys1, mult1, keys2, mult2 int, seed int64) (r1, r2 *rel.Relation) {
	t.Helper()
	for i := 0; i < max(mult1, mult2); i++ {
		a, b, err := workload.JoinSpec{Rows1: keys1, Domain1: keys1, Rows2: keys2, Domain2: keys2,
			Overlap: 1, PayloadCols: 1, PayloadWidth: 16, Seed: seed + int64(i)*1000003}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			r1, r2 = rel.New(a.Schema()), rel.New(b.Schema())
		}
		for _, tu := range a.Tuples() {
			if i < mult1 {
				r1.MustAppend(tu)
			}
		}
		for _, tu := range b.Tuples() {
			if i < mult2 {
				r2.MustAppend(tu)
			}
		}
	}
	return r1, r2
}

// setLen is the closed-form length of Tup(a) with its join key fixed:
// vlen(n) + Σ_fixed w + n·Σ_other w.
func setLen(t *testing.T, tuples []rel.Tuple, fixed []int) int {
	t.Helper()
	n := uvarintLen(len(tuples))
	for i, tu := range tuples {
		for j, v := range tu {
			if i > 0 && slices.Contains(fixed, j) {
				continue
			}
			switch v.Kind() {
			case rel.KindInt, rel.KindFloat:
				n += 8
			case rel.KindBool:
				n++
			default:
				n += uvarintLen(len(v.AsString())) + len(v.AsString())
			}
		}
	}
	return n
}

// resultBody runs sql over r1 and r2 and returns the body of the result
// message typ as the client receives it, decoded into v.
func resultBody(t *testing.T, r1, r2 *rel.Relation, proto Protocol, params Params, typ string, v any) int {
	t.Helper()
	size := -1
	_, _, err := queryAtMediator(t, networkOver(t, nil, r1, r2), func(link string, c transport.Conn) transport.Conn {
		if link != "client" {
			return c
		}
		return &mediatorLinkConn{Conn: c, onSend: func(m transport.Message) transport.Message {
			if m.Type == typ {
				size = len(m.Body)
				decodeBody(t, m, v)
			}
			return m
		}}
	}, "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id", proto, params)
	if err != nil || size < 0 {
		t.Fatalf("%v: no %s (%v)", proto, typ, err)
	}
	return size
}

// The client link's bytes on the benchmark shapes are pinned to their
// closed form, so a wire regression fails here and not only in the
// benchmark. comm.result on comm_tpch's 150 ⋈ 1,500 rows: a header, then
// one pair per matched key of two sealed sets of 12 (nonce) + 16 (tag) +
// setLen bytes. pm.result on pm_small's 45 ⋈ 450 rows: a header, then
// one evaluation per active-domain value of a 66-byte ciphertext and a
// blob of 16 (tag) + setLen bytes. Each body adds its 8-byte digest.
// The totals are pinned too, so a header that grows fails as well. The
// mediator–source links carry elements only: each of the four comm.cross
// and comm.cross-back frames on comm_tpch's shape is vlen(k) + 32·k for
// k opposite active-domain values.
func TestResultBytesClosedForm(t *testing.T) {
	const (
		digest = 8
		// 100 pairs of a 1-row and a 15-row set of (id INT, p0 TEXT(16)).
		commTPCH = 35040
		// 45 one-row and 30 fifteen-row evaluations, 4 buckets.
		pmSmall = 15420
		// Two frames of 100 and two of 150 elements.
		commCrossTPCH = 16038
	)
	keyed := func(r *rel.Relation) map[string][]rel.Tuple {
		groups, err := r.GroupByColumns([]string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]rel.Tuple{}
		for _, g := range groups {
			out[g.Key[0].String()] = g.Tuples
		}
		return out
	}
	blob := func(n int) int { return uvarintLen(n) + n }
	fixed := []int{0}

	t.Run("comm.result", func(t *testing.T) {
		r1, r2 := benchRelations(t, 150, 1, 100, 15, 1)
		var res commResult
		got := resultBody(t, r1, r2, ProtocolCommutative, Params{}, msgCommResult, &res)
		header := res
		header.Pairs = nil
		want := digest + len(mustMarshal(t, header)) - uvarintLen(0) + uvarintLen(len(res.Pairs))
		g1, g2 := keyed(r1), keyed(r2)
		matched := 0
		for k, ts1 := range g1 {
			if ts2, ok := g2[k]; ok {
				want += blob(12+16+setLen(t, ts1, fixed)) + blob(12+16+setLen(t, ts2, fixed))
				matched++
			}
		}
		if matched != len(res.Pairs) {
			t.Fatalf("%d pairs for %d matched keys", len(res.Pairs), matched)
		}
		if got != want || got != commTPCH {
			t.Errorf("comm.result is %d bytes, closed form %d, pinned %d", got, want, commTPCH)
		}
		t.Logf("comm.result: %d bytes, %d pairs", got, matched)
	})
	t.Run("comm.cross", func(t *testing.T) {
		r1, r2 := benchRelations(t, 150, 1, 100, 15, 1)
		// The mediator sends S1 R2's 100 elements, and S2 R1's 150; each
		// source returns as many.
		opposite := map[string]int{"source:R1": 100, "source:R2": 150}
		var mu sync.Mutex
		frames := map[string]int{}
		total := 0
		_, _, err := queryAtMediator(t, networkOver(t, nil, r1, r2), func(link string, c transport.Conn) transport.Conn {
			k, ok := opposite[link]
			if !ok {
				return c
			}
			check := func(m transport.Message) transport.Message {
				if m.Type != msgCommCross && m.Type != msgCommCrossBack {
					return m
				}
				if want := digest + uvarintLen(k) + commutative.ElementSize*k; len(m.Body) != want {
					t.Errorf("%s %s is %d bytes, closed form %d", link, m.Type, len(m.Body), want)
				}
				mu.Lock()
				frames[link+" "+m.Type]++
				total += len(m.Body)
				mu.Unlock()
				return m
			}
			return &mediatorLinkConn{Conn: c, onSend: check, onRecv: check}
		}, "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id", ProtocolCommutative, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) != 4 || total != commCrossTPCH {
			t.Errorf("%d cross frames %v of %d bytes, pinned 4 of %d", len(frames), frames, total, commCrossTPCH)
		}
	})
	t.Run("pm.result", func(t *testing.T) {
		r1, r2 := benchRelations(t, 45, 1, 30, 15, 1)
		var res pmResult
		got := resultBody(t, r1, r2, ProtocolPM, Params{}, msgPMResult, &res)
		header := res
		header.Evals1, header.Evals2 = nil, nil
		want := digest + len(mustMarshal(t, header)) - 2*uvarintLen(0) +
			uvarintLen(len(res.Evals1)) + uvarintLen(len(res.Evals2))
		for _, r := range []*rel.Relation{r1, r2} {
			for _, ts := range keyed(r) {
				want += ecelgamal.CiphertextSize + blob(16+setLen(t, ts, fixed))
			}
		}
		if got != want || got != pmSmall {
			t.Errorf("pm.result is %d bytes, closed form %d, pinned %d", got, want, pmSmall)
		}
		t.Logf("pm.result: %d bytes, %d + %d evaluations", got, len(res.Evals1), len(res.Evals2))
	})
}

func mustMarshal(t *testing.T, v interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
