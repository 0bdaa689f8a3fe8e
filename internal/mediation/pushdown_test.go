package mediation

import (
	"testing"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/leakage"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
)

func whereOf(t *testing.T, sql string) algebra.Expr {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return q.Where
}

func TestExtractPushdown(t *testing.T) {
	schema := rel.MustSchema("R1",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "name", Kind: rel.KindString})

	// Simple conjunction: both conjuncts for this schema.
	conds := extractPushdown(whereOf(t, "SELECT * FROM R1 WHERE id >= 3 AND name = 'x'"), schema)
	if len(conds) != 2 {
		t.Fatalf("conds = %v", conds)
	}
	if conds[0].Column != "id" || conds[0].Op != algebra.OpGe || conds[0].Bound.AsInt() != 3 {
		t.Errorf("cond[0] = %+v", conds[0])
	}

	// Literal-op-column order is flipped.
	conds = extractPushdown(whereOf(t, "SELECT * FROM R1 WHERE 3 < id"), schema)
	if len(conds) != 1 || conds[0].Op != algebra.OpGt {
		t.Errorf("flipped cond = %+v", conds)
	}

	// OR and NOT are not pushable.
	conds = extractPushdown(whereOf(t, "SELECT * FROM R1 WHERE id = 1 OR id = 2"), schema)
	if len(conds) != 0 {
		t.Errorf("OR pushed down: %v", conds)
	}
	conds = extractPushdown(whereOf(t, "SELECT * FROM R1 WHERE NOT id = 1"), schema)
	if len(conds) != 0 {
		t.Errorf("NOT pushed down: %v", conds)
	}

	// Conjunct nested under AND is found; foreign columns are skipped.
	conds = extractPushdown(whereOf(t, "SELECT * FROM R1 WHERE (id = 1 AND city = 'b') AND name <> 'z'"), schema)
	if len(conds) != 2 {
		t.Errorf("nested conds = %v", conds)
	}

	// Kind mismatch is skipped.
	conds = extractPushdown(whereOf(t, "SELECT * FROM R1 WHERE id = 'oops'"), schema)
	if len(conds) != 0 {
		t.Errorf("kind-mismatched cond pushed: %v", conds)
	}

	// Nil WHERE.
	if len(extractPushdown(nil, schema)) != 0 {
		t.Error("nil where produced conditions")
	}
}

func TestFlipCompare(t *testing.T) {
	pairs := map[algebra.CompareOp]algebra.CompareOp{
		algebra.OpLt: algebra.OpGt, algebra.OpGt: algebra.OpLt,
		algebra.OpLe: algebra.OpGe, algebra.OpGe: algebra.OpLe,
		algebra.OpEq: algebra.OpEq, algebra.OpNe: algebra.OpNe,
	}
	for in, want := range pairs {
		if got := flipCompare(in); got != want {
			t.Errorf("flip(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestFilterColumns(t *testing.T) {
	conds := []pushCondition{{Column: "a"}, {Column: "b"}, {Column: "a"}, {Column: "j"}}
	got := filterColumns(conds, []string{"j"})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("filterColumns = %v", got)
	}
}

// Pushdown must not change results, and must shrink what the mediator
// sends back (the superset) when predicates are selective.
func TestDASPushdownEndToEnd(t *testing.T) {
	sql := "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id WHERE R1.name <> 'gus' AND city = 'dortmund'"

	baseParams := fastParams()
	baseParams.Partitions = 16 // fine partitions: filters become selective

	// Reference run without pushdown.
	plainLedger := leakage.NewLedger()
	n := newTestNetwork(t, plainLedger)
	want, err := n.Query(sql, ProtocolDAS, baseParams)
	if err != nil {
		t.Fatal(err)
	}
	baseSuperset, _ := plainLedger.Observed(leakage.PartyClient, "superset-size")

	// Pushdown run.
	pushLedger := leakage.NewLedger()
	n2 := newTestNetwork(t, pushLedger)
	params := baseParams
	params.Pushdown = true
	got, err := n2.Query(sql, ProtocolDAS, params)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualMultiset(want) {
		t.Errorf("pushdown changed results:\n%v\nwant\n%v", got, want)
	}
	pushSuperset, _ := pushLedger.Observed(leakage.PartyClient, "superset-size")
	if pushSuperset > baseSuperset {
		t.Errorf("pushdown grew the superset: %d > %d", pushSuperset, baseSuperset)
	}
	if pushSuperset == 0 && want.Len() > 0 {
		t.Error("pushdown dropped true results")
	}
	// The mediator observed the filters (extra leakage, by design).
	if _, ok := pushLedger.Observed(leakage.PartyMediator, "pushdown-filters"); !ok {
		t.Error("pushdown filters not recorded at mediator")
	}
	if _, ok := plainLedger.Observed(leakage.PartyMediator, "pushdown-filters"); ok {
		t.Error("non-pushdown run recorded filters")
	}
}

// With selective equality predicates and fine partitions, pushdown should
// strictly shrink the superset.
func TestDASPushdownShrinksSuperset(t *testing.T) {
	sql := "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id WHERE city = 'dortmund'"
	params := fastParams()
	params.Partitions = 64 // one value per partition: exact filtering

	run := func(push bool) int64 {
		ledger := leakage.NewLedger()
		n := newTestNetwork(t, ledger)
		params := params
		params.Pushdown = push
		if _, err := n.Query(sql, ProtocolDAS, params); err != nil {
			t.Fatal(err)
		}
		v, _ := ledger.Observed(leakage.PartyClient, "superset-size")
		return v
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Errorf("superset with pushdown %d, without %d; want strict shrink", with, without)
	}
	// city='dortmund' matches 1 R2 row; join on id=3 has 2 R1 rows → 2 pairs.
	if with != 2 {
		t.Errorf("pushdown superset = %d, want 2", with)
	}
}

// Equality pushdown on the join attribute itself also works (join columns
// are indexed anyway).
func TestDASPushdownOnJoinColumn(t *testing.T) {
	sql := "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id WHERE R1.id = 3"
	params := fastParams()
	params.Partitions = 64
	params.Pushdown = true
	ledger := leakage.NewLedger()
	n := newTestNetwork(t, ledger)
	got, err := n.Query(sql, ProtocolDAS, params)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 { // id 3: 2 left × 2 right
		t.Errorf("join size = %d, want 4\n%v", got.Len(), got)
	}
	superset, _ := ledger.Observed(leakage.PartyClient, "superset-size")
	if superset != 4 {
		t.Errorf("superset = %d, want 4 (exact with per-value partitions)", superset)
	}
}

func TestPushdownSoundnessAcrossPartitionCounts(t *testing.T) {
	sql := "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id WHERE R2.city >= 'd'"
	for _, k := range []int{1, 3, 16} {
		params := Params{Partitions: k, Pushdown: true}
		n := newTestNetwork(t, nil)
		got, err := n.Query(sql, ProtocolDAS, params)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		n2 := newTestNetwork(t, nil)
		want, err := n2.Query(sql, ProtocolPlaintext, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualMultiset(want) {
			t.Errorf("k=%d: pushdown result mismatch:\n%v\nwant\n%v", k, got, want)
		}
	}
}
