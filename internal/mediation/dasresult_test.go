package mediation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/leakage"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/telemetry"
)

// queryDASResult runs one DAS query over n, which must succeed, and
// returns its result and the das.result the mediator sent the client,
// with its body length.
func queryDASResult(t *testing.T, n *Network, params Params) (*rel.Relation, dasResult, int) {
	t.Helper()
	var tr transcript
	got, _, err := tap{log: &tr}.query(t, n, fixtureSQL, ProtocolDAS, params)
	if err != nil {
		t.Fatal(err)
	}
	var res dasResult
	body := tr.first(t, "client", msgDASResult, &res)
	return got, res, body
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
			n := networkOver(t, nil, tc.r1, tc.r2)
			got, err := n.Query(fixtureSQL, ProtocolDAS, fastParams())
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != 0 || !got.EqualMultiset(want) {
				t.Errorf("got\n%v\nwant the empty\n%v", got, want)
			}
			if errs := n.SourceErrors(); len(errs) != 0 {
				t.Errorf("source errors: %v", errs)
			}
		})
	}
}

// queryDASTampered runs the fixture DAS query with tamper applied to the
// client's inbound das.result, and checks that the query ends in a
// terminal *ProtocolError that blames the mediator, with no phase.
func queryDASTampered(t *testing.T, tamper func(*dasResult)) *ProtocolError {
	t.Helper()
	_, _, err := tap{onSend: rewrite(t, "client", msgDASResult, tamper)}.query(t, newTestNetwork(t, nil), fixtureSQL, ProtocolDAS, fastParams())
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *ProtocolError", err)
	}
	if pe.Party != leakage.PartyMediator || pe.Phase != "" {
		t.Errorf("blamed %s/%s, want %s", pe.Party, pe.Phase, leakage.PartyMediator)
	}
	if resilience.Retryable(err) {
		t.Errorf("tampered das.result classified retryable: %v", err)
	}
	return pe
}

// A mediator cannot forge a run, but it could replay one to inflate the
// client's join: a das.result that repeats a run aborts the query, and
// the client blames the mediator that relayed it.
func TestDASResultDuplicateEtupleAborts(t *testing.T) {
	pe := queryDASTampered(t, func(res *dasResult) {
		if len(res.E1) < 2 {
			t.Fatalf("fixture ships %d R1 runs, need 2", len(res.E1))
		}
		res.E1[1] = res.E1[0]
	})
	if !strings.Contains(pe.Error(), "repeats a run") {
		t.Errorf("err = %v, want the repeated run named", pe)
	}
}

// Each source seals its runs under its own session: a run the mediator
// moves to the other side's table fails its AEAD at the client, which
// blames the mediator that relayed it.
func TestDASResultMovedRunFailsOpen(t *testing.T) {
	pe := queryDASTampered(t, func(res *dasResult) {
		res.E2 = append(res.E2, res.E1[len(res.E1)-1])
		res.E1 = res.E1[:len(res.E1)-1]
	})
	if !strings.Contains(pe.Error(), "hybrid: open") {
		t.Errorf("err = %v, want the failed open named", pe)
	}
}

// A das.result table holds sealed runs, never an empty one: the decoder
// rejects a zero-length run, and a count its bytes cannot hold.
func TestDASResultRejectsEmptyRun(t *testing.T) {
	for name, tc := range map[string]struct {
		res     dasResult
		wantErr bool
	}{
		"runs":         {dasResult{E1: [][]byte{{1}}, E2: [][]byte{{2}, {3}}, Size: 2}, false},
		"no runs":      {dasResult{}, false},
		"empty E1 run": {dasResult{E1: [][]byte{{}}, E2: [][]byte{{2}}, Size: 1}, true},
		"empty E2 run": {dasResult{E1: [][]byte{{1}}, E2: [][]byte{{2}, nil}, Size: 2}, true},
	} {
		b, err := codec.Marshal(tc.res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := codec.Unmarshal(b, new(dasResult)); (err != nil) != tc.wantErr {
			t.Errorf("%s: decode error %v, want one: %v", name, err, tc.wantErr)
		}
	}
	if err := codec.Unmarshal([]byte{100, 5, 1}, new(dasResult)); err == nil {
		t.Error("100 runs in 2 bytes decoded")
	}
}

// The fixture's rows under fastParams: three equi-depth partitions a
// side ship R1's {1, 2} and {3, 3} runs and R2's {2} and {3, 3}, so
// |R_C| = 2·1 + 2·2 over 4 and 3 shipped rows.
const fixtureSize, fixtureRows1, fixtureRows2 = 6, 4, 3

// A das.result whose Size no set of pairs over its tables' rows could
// have aborts the query, blamed on the mediator. |E1| and |E2| count the
// rows of the tables' runs.
func TestDASResultBadSizeAborts(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
	}{
		{"above |E1|·|E2|", fixtureRows1*fixtureRows2 + 1},
		{"below |E1|", fixtureRows1 - 1},
		{"negative", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pe := queryDASTampered(t, func(res *dasResult) {
				if res.Size != fixtureSize {
					t.Fatalf("fixture has |R_C| = %d, want %d", res.Size, fixtureSize)
				}
				res.Size = tc.size
			})
			if !strings.Contains(pe.Error(), "claims") {
				t.Errorf("err = %v, want the claimed Size named", pe)
			}
		})
	}
}

// dasResultShape is what a tap on das.result measures.
type dasResultShape struct {
	body, runBytes, runs, size int
	// runFraming is what the tables add to their rows, as far as a tap
	// sees: the run counts and each run's length prefix, nonce and tag
	// (not the tuple-set count sealed inside the run).
	runFraming int
}

func (s *dasResultShape) visit(res dasResult, bodyBytes int) {
	s.body, s.size = bodyBytes, res.Size
	s.runs = len(res.E1) + len(res.E2)
	s.runFraming = uvarintLen(len(res.E1)) + uvarintLen(len(res.E2))
	for _, run := range append(append([][]byte(nil), res.E1...), res.E2...) {
		s.runBytes += len(run)
		s.runFraming += uvarintLen(len(run)) + hybridOverhead
	}
}

// hybridOverhead is a sealed run's nonce and tag.
const hybridOverhead = 12 + 16

func uvarintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// wireRowLen is a row's length in a tuple set: the set's length less
// its one-byte count.
func wireRowLen(tu rel.Tuple) int {
	set, err := rel.EncodeTupleSet([]rel.Tuple{tu}, nil)
	if err != nil {
		panic(err)
	}
	return len(set) - 1
}

// shippedRows lists, per side, the row counts of the runs q_S ships for
// params over r1 ⋈ r2 on id (partitions overlapping one of the other
// side's), and the tuple-set bytes of their rows.
func shippedRows(t *testing.T, r1, r2 *rel.Relation, params Params) (runs1, runs2 []int, rowBytes int) {
	t.Helper()
	parts := func(r *rel.Relation) []das.Partition {
		dom, err := r.ActiveDomain("id")
		if err != nil {
			t.Fatal(err)
		}
		p, err := das.EquiDepthPartitions(dom, params.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2 := parts(r1), parts(r2)
	side := func(r *rel.Relation, own, other []das.Partition) []int {
		var runs []int
		for _, p := range own {
			if !slices.ContainsFunc(other, p.Overlaps) {
				continue
			}
			rows := 0
			for _, tu := range r.Tuples() {
				if p.Contains(tu[0]) {
					rows++
					rowBytes += wireRowLen(tu)
				}
			}
			runs = append(runs, rows)
		}
		return runs
	}
	return side(r1, p1, p2), side(r2, p2, p1), rowBytes
}

// The client's decryption work is the shipped runs, whatever |R1|+|R2|
// and |R_C|: a fat join whose superset is several times the join opens
// at most one run per partition a side. The das.result frame carries
// its rows with a few bytes per row and per run, and none per pair.
func TestDASClientOpensLinear(t *testing.T) {
	// R1: ids 0..19, one row each. R2: ids 0, 5, …, 95, ten rows each.
	// Sixteen equi-depth partitions per side: R2's [0,5] and [10,15]
	// (twenty rows each) overlap three and six of R1's partitions, six
	// rows each time.
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
	got, res, body := queryDASResult(t, n, Params{})
	var shape dasResultShape
	shape.visit(res, body)
	if got.Len() != 40 {
		t.Fatalf("join has %d rows, want 40", got.Len())
	}
	superset, _ := ledger.Observed(leakage.PartyClient, "superset-size")
	if superset != 240 {
		t.Fatalf("superset %d, want 240: the fixture no longer exercises the quadratic", superset)
	}
	if discarded, _ := ledger.Observed(leakage.PartyClient, "false-positives-discarded"); discarded != superset-int64(got.Len()) {
		t.Errorf("%d false positives discarded, want %d − %d", discarded, superset, got.Len())
	}
	opens := reg.OpDeltas()["hybrid.open"]
	t.Logf("join %d, superset %d, hybrid.open %d, das.result %d B (%d runs, %d B)", got.Len(), superset, opens, shape.body, shape.runs, shape.runBytes)
	// Every run once, plus the two index tables.
	if opens != int64(shape.runs+2) {
		t.Errorf("%d hybrid.open calls, result tables hold %d runs", opens, shape.runs)
	}
	defaults := Params{}.withDefaults()
	if opens > int64(2*defaults.Partitions+2) {
		t.Errorf("%d hybrid.open calls for %d partitions a side (|R1|+|R2| = %d, superset %d)", opens, defaults.Partitions, r1.Len()+r2.Len(), superset)
	}
	if c := ledger.PrimitiveCount(leakage.PartyClient, "hybrid-decryption"); c != int64(shape.runs) {
		t.Errorf("ledger records %d hybrid decryptions, %d runs were opened", c, shape.runs)
	}
	// Each source seals its runs and its index tables.
	seals := reg.OpDeltas()["hybrid.seal"]
	sealed := ledger.PrimitiveCount(leakage.PartySource("S1"), "hybrid-encryption") +
		ledger.PrimitiveCount(leakage.PartySource("S2"), "hybrid-encryption")
	if sealed != seals || seals > int64(2*defaults.Partitions+2) {
		t.Errorf("ledger records %d hybrid encryptions, %d hybrid.seal calls for %d partitions a side", sealed, seals, defaults.Partitions)
	}
	// Beyond its rows, a frame carries a few bytes of framing per run
	// and a fixed envelope; a tuple set frames no row.
	runs1, runs2, rowBytes := shippedRows(t, r1, r2, defaults)
	if len(runs1)+len(runs2) != shape.runs {
		t.Fatalf("%d runs shipped, the partitions predict %d+%d", shape.runs, len(runs1), len(runs2))
	}
	rows := 0
	for _, k := range append(runs1, runs2...) {
		rows += k
	}
	if overhead, limit := shape.body-rowBytes, 40*shape.runs+64; overhead > limit {
		t.Errorf("das.result carries %d bytes beside its %d rows in %d runs (limit %d)", overhead, rows, shape.runs, limit)
	}
}

// On a selective join whose non-shared keys lie far above the other
// side's range, as the benchmark's generator places them (1<<40 + i), the
// client opens the join's rows plus at most one partition's rows a side.
// The shape is das_tiny_concurrent's: eight keys a side, two rows each,
// half of R2's keys shared, so the default sixteen equi-depth partitions
// hold one key each. Equal-width partitions of R2's range put all of R1's
// keys in R2's first partition and shipped every R1 row.
func TestDASSelectiveJoinShipsJoinRows(t *testing.T) {
	s1, s2 := testRelations(t)
	r1, r2 := rel.New(s1.Schema()), rel.New(s2.Schema())
	for i := int64(0); i < 8; i++ {
		k2 := i
		if i >= 4 {
			k2 = 1<<40 + i
		}
		for j := 0; j < 2; j++ {
			r1.MustAppend(rel.Tuple{rel.Int(i), rel.String_("row")})
			r2.MustAppend(rel.Tuple{rel.Int(k2), rel.String_("row")})
		}
	}
	// Each row is 12 bytes (an 8-byte INT, then "row" and its one-byte
	// length) and each run a sealed tuple set: nonce, tag, a one-byte
	// count, and its rows with no length before them.
	rowLen := wireRowLen(r1.Tuple(0))
	if rowLen != 12 {
		t.Fatalf("a row is %d bytes on the wire, want 12", rowLen)
	}
	rowsOf := func(side string, runs [][]byte) int {
		n := 0
		for _, run := range runs {
			body := len(run) - hybridOverhead - 1
			if body%rowLen != 0 {
				t.Fatalf("%s: a run of %d B does not hold whole %d-byte rows", side, len(run), rowLen)
			}
			n += body / rowLen
		}
		return n
	}
	got, res, _ := queryDASResult(t, networkOver(t, nil, r1, r2), Params{})
	rows1, rows2 := rowsOf("R1", res.E1), rowsOf("R2", res.E2)
	if got.Len() != 16 {
		t.Fatalf("join has %d rows, want 16", got.Len())
	}
	// Eight rows a side join; a partition holds one key, two rows.
	const joinRows, partitionRows = 8, 2
	if rows1 > joinRows+partitionRows || rows2 > joinRows+partitionRows {
		t.Errorf("the client opens %d R1 and %d R2 rows, want at most %d + %d a side", rows1, rows2, joinRows, partitionRows)
	}
}

// The das.result frame does not grow with |R_C|: the same surviving rows
// under a superset 20× larger make a frame that differs by exactly the
// framing of the extra runs and the varint that holds |R_C|.
func TestDASResultSizeIndependentOfSuperset(t *testing.T) {
	// Every R1 id occurs in R2, so every row survives at any
	// granularity: 20 equi-depth partitions match exactly, one partition
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
	// framing is each shape's run framing, with the tuple-set count
	// each run holds.
	framing := map[int]int{}
	for _, k := range []int{1, 20} {
		params := Params{Partitions: k}
		got, res, body := queryDASResult(t, networkOver(t, nil, r1, r2), params)
		shapes[k] = &dasResultShape{}
		shapes[k].visit(res, body)
		if got.Len() != 200 {
			t.Fatalf("k=%d: join has %d rows, want 200", k, got.Len())
		}
		runs1, runs2, _ := shippedRows(t, r1, r2, params)
		shipped := 0
		framing[k] = shapes[k].runFraming
		for _, rows := range append(runs1, runs2...) {
			shipped += rows
			framing[k] += uvarintLen(rows)
		}
		if shipped != r1.Len()+r2.Len() || len(runs1)+len(runs2) != shapes[k].runs {
			t.Fatalf("k=%d: %d rows in %d runs ship; the fixture no longer ships every row", k, shipped, shapes[k].runs)
		}
	}
	coarse, fine := shapes[1], shapes[20]
	t.Logf("|R_C| %d vs %d: das.result %d B vs %d B (%d vs %d runs)", coarse.size, fine.size, coarse.body, fine.body, coarse.runs, fine.runs)
	if coarse.size < 4*fine.size {
		t.Fatalf("|R_C| %d vs %d differ by less than 4×", coarse.size, fine.size)
	}
	want := framing[20] - framing[1] + uvarintLen(2*fine.size) - uvarintLen(2*coarse.size)
	if d := fine.body - coarse.body; d != want {
		t.Errorf("das.result is %d B at |R_C| = %d and %d B at |R_C| = %d: %d B apart, the framing of the extra runs and |R_C| accounts for %d",
			coarse.body, coarse.size, fine.body, fine.size, d, want)
	}
}

// The mediator's view is a function of its Table 1 row and the runs'
// shapes: two inputs with equal |R1| and |R2|, equal row counts per
// bucket and equal TEXT bytes per bucket, but different values and
// different TEXT lengths per row, put the same sequence of (link,
// direction, type, body length) on the mediator's links, and the same
// (rows, sealed length) runs in its das.partial and das.result tables.
// Index values are random, so each table is compared as a multiset.
func TestDASMediatorViewShape(t *testing.T) {
	s1, s2 := testRelations(t)
	build := func(schema rel.Schema, rows ...any) *rel.Relation {
		r := rel.New(schema)
		for i := 0; i < len(rows); i += 2 {
			r.MustAppend(rel.Tuple{rel.Int(int64(rows[i].(int))), rel.String_(rows[i+1].(string))})
		}
		return r
	}
	// Three equi-depth partitions a side: R1's {1, 2}, {3} and {7} meet
	// R2's {2} and {3}; the second input shifts every id by ten and
	// redistributes each bucket's TEXT bytes over its rows.
	inputs := [][2]*rel.Relation{
		{build(s1.Schema(), 1, "a", 2, "bbbbbb", 3, "cc", 3, "dddd", 7, "e"),
			build(s2.Schema(), 2, "xx", 3, "yyy", 3, "z", 9, "wwww")},
		{build(s1.Schema(), 11, "pppp", 12, "qqq", 13, "r", 13, "sssss", 17, "t"),
			build(s2.Schema(), 12, "uv", 13, "w", 13, "xyz", 19, "abcd")},
	}
	var views [2][]string
	for i, in := range inputs {
		var tr transcript
		got, srcErrs, err := tap{log: &tr}.query(t, networkOver(t, nil, in[0], in[1]), fixtureSQL, ProtocolDAS, fastParams())
		if err != nil || srcErrs["S1"] != nil || srcErrs["S2"] != nil {
			t.Fatalf("query: %v, sources: %v", err, srcErrs)
		}
		if got.Len() != 5 {
			t.Fatalf("input %d: join has %d rows, want 5", i, got.Len())
		}
		for _, f := range tr.on("") {
			entry := f.String()
			var runs []string
			switch f.Type {
			case msgDASPartial:
				var p dasPartial
				decodeBody(t, f.Message, &p)
				for _, run := range p.EncRel.Runs {
					runs = append(runs, fmt.Sprintf("%d×%d rows/%d B", len(run.Index), run.Rows, len(run.Sealed)))
				}
				slices.Sort(runs)
			case msgDASResult:
				var res dasResult
				decodeBody(t, f.Message, &res)
				for _, tab := range [][][]byte{res.E1, res.E2} {
					var lens []string
					for _, run := range tab {
						lens = append(lens, fmt.Sprintf("%d B", len(run)))
					}
					slices.Sort(lens)
					runs = append(runs, fmt.Sprint(lens))
				}
			}
			if len(runs) > 0 {
				entry += fmt.Sprint(" ", runs)
			}
			views[i] = append(views[i], entry)
		}
	}
	if len(views[0]) == 0 || fmt.Sprint(views[0]) != fmt.Sprint(views[1]) {
		t.Errorf("mediator views differ:\n%s\n%s", strings.Join(views[0], "\n"), strings.Join(views[1], "\n"))
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
	for _, k := range []int{1, 2, 4} {
		got, err := networkOver(t, nil, r1, r2).Query(fixtureSQL, ProtocolDAS, Params{Partitions: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// EqualMultiset compares with Value.Equal, under which NaN ≠ NaN.
		if got.Clone().Sort().String() != want.Clone().Sort().String() {
			t.Errorf("k=%d: got\n%v\nwant\n%v", k, got, want)
		}
	}
}

// The DAS client finds each sealed index table's column in the relayed
// Columns lists. A list that does not name the sealed tables, in order,
// aborts the query, blamed on the mediator.
func TestDASRelayedColumnsNameSealedTables(t *testing.T) {
	params := fastParams()
	params.Pushdown = true
	for name, edit := range map[string]func(*dasIndexTables){
		"renamed filter column": func(its *dasIndexTables) { its.Cols1[1] = "id" },
		"dropped filter column": func(its *dasIndexTables) { its.Cols1 = its.Cols1[:1] },
	} {
		edit := edit
		t.Run(name, func(t *testing.T) {
			_, _, err := tap{onSend: rewrite(t, "client", msgDASIndexTables, func(its *dasIndexTables) {
				if len(its.Cols1) != 2 {
					t.Errorf("R1 indexes %v, want its join and its filter column", its.Cols1)
					return
				}
				edit(its)
			})}.query(t, newTestNetwork(t, nil), fixtureSQL+" WHERE R1.name = 'ada'", ProtocolDAS, params)
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Party != leakage.PartyMediator {
				t.Fatalf("err = %v, want a *ProtocolError blaming the mediator", err)
			}
			t.Logf("aborted: %v", err)
		})
	}
}

// das_tiny_concurrent's client link carries, per query, the sealed index
// tables and the server query. Both are pinned on its shape (8 keys of 2
// rows a side, half of them shared, the default 16 partitions asked
// for), so a wire regression fails here and not only in the benchmark.
// A table's n partitions are labelled with a permutation of [0, n), one
// uvarint byte each while n ≤ 128: das.server-query is its 4-byte
// digest, the attribute count, the pair count, two labels per pair and
// two empty filter lists.
func TestDASTranslateBytesPinned(t *testing.T) {
	const (
		indexTables = 509
		serverQuery = 16
		// Eight keys a side, so eight partitions each.
		parts = 8
	)
	r1, r2 := benchRelations(t, 8, 2, 8, 2, 0.5, 19920817)
	var tr transcript
	if _, _, err := (tap{log: &tr}).query(t, networkOver(t, nil, r1, r2), fixtureSQL, ProtocolDAS, Params{}); err != nil {
		t.Fatal(err)
	}
	var its dasIndexTables
	if got := tr.first(t, "client", msgDASIndexTables, &its); got != indexTables {
		t.Errorf("das.index-tables is %d bytes, pinned %d", got, indexTables)
	}
	var sq das.ServerQuery
	got := tr.first(t, "client", msgDASServerQuery, &sq)
	if len(sq.PerAttr) != 1 {
		t.Fatalf("server query over %d attributes, want 1", len(sq.PerAttr))
	}
	pairs := sq.PerAttr[0]
	for _, p := range pairs {
		if p.I1 >= parts || p.I2 >= parts {
			t.Errorf("pair %v: a label outside [0, %d)", p, parts)
		}
	}
	if want := 4 + 1 + uvarintLen(len(pairs)) + 2*len(pairs) + 2; got != want || got != serverQuery {
		t.Errorf("das.server-query is %d bytes for %d pairs, closed form %d, pinned %d", got, len(pairs), want, serverQuery)
	}
}
