package algebra

import (
	"strings"
	"testing"

	rel "github.com/secmediation/secmediation/internal/relation"
)

func sampleR(t testing.TB) *rel.Relation {
	t.Helper()
	s := rel.MustSchema("R",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "name", Kind: rel.KindString},
	)
	return rel.MustFromTuples(s,
		rel.Tuple{rel.Int(1), rel.String_("a")},
		rel.Tuple{rel.Int(2), rel.String_("b")},
		rel.Tuple{rel.Int(3), rel.String_("c")},
		rel.Tuple{rel.Int(3), rel.String_("c2")},
	)
}

func sampleS(t testing.TB) *rel.Relation {
	t.Helper()
	s := rel.MustSchema("S",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "city", Kind: rel.KindString},
	)
	return rel.MustFromTuples(s,
		rel.Tuple{rel.Int(2), rel.String_("berlin")},
		rel.Tuple{rel.Int(3), rel.String_("dortmund")},
		rel.Tuple{rel.Int(4), rel.String_("essen")},
	)
}

func TestSelect(t *testing.T) {
	r := sampleR(t)
	out, err := Select(r, Compare{Op: OpGe, Left: ColumnRef{"id"}, Right: Literal{rel.Int(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("select returned %d tuples, want 3", out.Len())
	}
	// Type errors must be caught before evaluation.
	if _, err := Select(r, Compare{Op: OpEq, Left: ColumnRef{"id"}, Right: Literal{rel.String_("x")}}); err == nil {
		t.Error("kind-mismatched predicate accepted")
	}
	if _, err := Select(r, ColumnRef{"id"}); err == nil {
		t.Error("non-boolean predicate accepted")
	}
	if _, err := Select(r, Compare{Op: OpEq, Left: ColumnRef{"nope"}, Right: Literal{rel.Int(1)}}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestProject(t *testing.T) {
	r := sampleR(t)
	out, err := Project(r, "name")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 || out.Schema().Arity() != 1 {
		t.Errorf("project: len=%d arity=%d", out.Len(), out.Schema().Arity())
	}
	if _, err := Project(r, "ghost"); err == nil {
		t.Error("project on missing column accepted")
	}
}

func TestCrossProduct(t *testing.T) {
	out, err := CrossProduct(sampleR(t), sampleS(t))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 12 {
		t.Errorf("cross product size = %d, want 12", out.Len())
	}
	if out.Schema().IndexOf("R.id") < 0 || out.Schema().IndexOf("S.id") < 0 {
		t.Errorf("cross product schema lacks qualified ids: %v", out.Schema())
	}
}

func TestEquiJoin(t *testing.T) {
	out, err := EquiJoin(sampleR(t), sampleS(t), []string{"id"}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	// ids 2 (1×1) and 3 (2×1) match → 3 result tuples.
	if out.Len() != 3 {
		t.Errorf("equijoin size = %d, want 3", out.Len())
	}
	for _, tup := range out.Tuples() {
		li := out.Schema().IndexOf("R.id")
		ri := out.Schema().IndexOf("S.id")
		if !tup[li].Equal(tup[ri]) {
			t.Errorf("join produced non-matching tuple %v", tup)
		}
	}
	if _, err := EquiJoin(sampleR(t), sampleS(t), []string{"id"}, []string{}); err == nil {
		t.Error("mismatched column lists accepted")
	}
	if _, err := EquiJoin(sampleR(t), sampleS(t), []string{"name"}, []string{"id"}); err == nil {
		t.Error("kind-mismatched join columns accepted")
	}
	if _, err := EquiJoin(sampleR(t), sampleS(t), []string{"zz"}, []string{"id"}); err == nil {
		t.Error("unknown join column accepted")
	}
}

// Property: equi-join equals cross product followed by selection on key
// equality (the textbook identity the DAS server/client query split relies
// on).
func TestEquiJoinMatchesCrossSelect(t *testing.T) {
	r, s := sampleR(t), sampleS(t)
	join, err := EquiJoin(r, s, []string{"id"}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	cross, err := CrossProduct(r, s)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(cross, Compare{Op: OpEq, Left: ColumnRef{"R.id"}, Right: ColumnRef{"S.id"}})
	if err != nil {
		t.Fatal(err)
	}
	if !join.EqualMultiset(sel) {
		t.Errorf("join != σ(cross):\n%v\nvs\n%v", join, sel)
	}
}

func TestNaturalJoin(t *testing.T) {
	out, err := NaturalJoin(sampleR(t), sampleS(t))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("natural join size = %d, want 3", out.Len())
	}
	// The shared id column must appear exactly once.
	ids := 0
	for _, c := range out.Schema().Columns {
		if strings.HasSuffix(c.Name, "id") {
			ids++
		}
	}
	if ids != 1 {
		t.Errorf("natural join kept %d id columns, want 1: %v", ids, out.Schema())
	}
	// Disjoint schemas degrade to a cross product.
	disjoint := rel.MustFromTuples(rel.MustSchema("T", rel.Column{Name: "x", Kind: rel.KindBool}),
		rel.Tuple{rel.Bool(true)})
	cp, err := NaturalJoin(sampleR(t), disjoint)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() != sampleR(t).Len() {
		t.Errorf("disjoint natural join size = %d, want %d", cp.Len(), sampleR(t).Len())
	}
}

func TestUnionIntersectDistinct(t *testing.T) {
	s := rel.MustSchema("R", rel.Column{Name: "k", Kind: rel.KindInt})
	a := rel.MustFromTuples(s, rel.Tuple{rel.Int(1)}, rel.Tuple{rel.Int(2)}, rel.Tuple{rel.Int(2)})
	b := rel.MustFromTuples(s, rel.Tuple{rel.Int(2)}, rel.Tuple{rel.Int(3)})
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 5 {
		t.Errorf("union all size = %d, want 5", u.Len())
	}
	d := Distinct(u)
	if d.Len() != 3 {
		t.Errorf("distinct size = %d, want 3", d.Len())
	}
	i, err := Intersect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if i.Len() != 1 || i.Tuple(0)[0].AsInt() != 2 {
		t.Errorf("intersect = %v, want {2}", i)
	}
	other := rel.MustFromTuples(rel.MustSchema("X", rel.Column{Name: "k", Kind: rel.KindString}))
	if _, err := Union(a, other); err == nil {
		t.Error("union of incompatible schemas accepted")
	}
	if _, err := Intersect(a, other); err == nil {
		t.Error("intersect of incompatible schemas accepted")
	}
}

func TestExprStrings(t *testing.T) {
	e := And{
		Left:  Compare{Op: OpEq, Left: ColumnRef{"a"}, Right: Literal{rel.String_("it's")}},
		Right: Not{Inner: Or{Left: Literal{rel.Bool(true)}, Right: Literal{rel.Bool(false)}}},
	}
	got := e.String()
	for _, want := range []string{"a = 'it''s'", "NOT", "OR", "AND"} {
		if !strings.Contains(got, want) {
			t.Errorf("expr string %q missing %q", got, want)
		}
	}
	for op, want := range map[CompareOp]string{OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="} {
		if op.String() != want {
			t.Errorf("op %d string = %q, want %q", op, op.String(), want)
		}
	}
}

func TestCompareOpsEval(t *testing.T) {
	s := rel.MustSchema("R", rel.Column{Name: "x", Kind: rel.KindInt})
	tup := rel.Tuple{rel.Int(5)}
	for _, tc := range []struct {
		op   CompareOp
		rhs  int64
		want bool
	}{
		{OpEq, 5, true}, {OpEq, 4, false},
		{OpNe, 4, true}, {OpNe, 5, false},
		{OpLt, 6, true}, {OpLt, 5, false},
		{OpLe, 5, true}, {OpLe, 4, false},
		{OpGt, 4, true}, {OpGt, 5, false},
		{OpGe, 5, true}, {OpGe, 6, false},
	} {
		e := Compare{Op: tc.op, Left: ColumnRef{"x"}, Right: Literal{rel.Int(tc.rhs)}}
		v, err := e.Eval(s, tup)
		if err != nil {
			t.Fatal(err)
		}
		if v.AsBool() != tc.want {
			t.Errorf("5 %s %d = %v, want %v", tc.op, tc.rhs, v.AsBool(), tc.want)
		}
	}
}

func TestTreeEvalAndHelpers(t *testing.T) {
	cat := MapCatalog{"R": sampleR(t), "S": sampleS(t)}
	tree := ProjectNode{
		Cols: []string{"name", "city"},
		Child: SelectNode{
			Pred: Compare{Op: OpNe, Left: ColumnRef{"city"}, Right: Literal{rel.String_("essen")}},
			Child: JoinNode{
				Left: Scan{"R"}, Right: Scan{"S"},
				LeftCols: []string{"id"}, RightCols: []string{"id"},
			},
		},
	}
	out, err := tree.Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 || out.Schema().Arity() != 2 {
		t.Errorf("tree eval: len=%d arity=%d, want 3/2", out.Len(), out.Schema().Arity())
	}
	leaves := Leaves(tree)
	if len(leaves) != 2 || leaves[0].Relation != "R" || leaves[1].Relation != "S" {
		t.Errorf("Leaves = %v", leaves)
	}
	if _, err := (Scan{"missing"}).Eval(cat); err == nil {
		t.Error("scan of unknown relation succeeded")
	}
	if !strings.Contains(tree.String(), "⋈") {
		t.Errorf("tree string lacks join symbol: %s", tree.String())
	}
}

func TestNaturalJoinNodeEval(t *testing.T) {
	cat := MapCatalog{"R": sampleR(t), "S": sampleS(t)}
	n := JoinNode{Left: Scan{"R"}, Right: Scan{"S"}, Natural: true}
	out, err := n.Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("natural join node size = %d, want 3", out.Len())
	}
	if !strings.Contains(n.String(), "⋈") {
		t.Error("natural join node string")
	}
}
