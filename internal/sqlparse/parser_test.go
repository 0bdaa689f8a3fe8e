package sqlparse

import (
	"strings"
	"testing"

	"github.com/secmediation/secmediation/internal/algebra"
	rel "github.com/secmediation/secmediation/internal/relation"
)

func testCatalog(t testing.TB) algebra.MapCatalog {
	t.Helper()
	rs := rel.MustSchema("R",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "name", Kind: rel.KindString})
	ss := rel.MustSchema("S",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "city", Kind: rel.KindString})
	return algebra.MapCatalog{
		"R": rel.MustFromTuples(rs,
			rel.Tuple{rel.Int(1), rel.String_("a")},
			rel.Tuple{rel.Int(2), rel.String_("b")},
			rel.Tuple{rel.Int(3), rel.String_("c")}),
		"S": rel.MustFromTuples(ss,
			rel.Tuple{rel.Int(2), rel.String_("x")},
			rel.Tuple{rel.Int(3), rel.String_("y")},
			rel.Tuple{rel.Int(4), rel.String_("z")}),
	}
}

func TestParseSelectStar(t *testing.T) {
	q, err := Parse("select * from R")
	if err != nil {
		t.Fatal(err)
	}
	if q.Columns != nil || q.Left != "R" || q.Right != "" || q.Where != nil {
		t.Errorf("Parse: %+v", q)
	}
}

func TestParseJoinOn(t *testing.T) {
	q, err := Parse("SELECT name, city FROM R JOIN S ON R.id = S.id")
	if err != nil {
		t.Fatal(err)
	}
	if q.Left != "R" || q.Right != "S" || q.Natural {
		t.Errorf("join parse: %+v", q)
	}
	if len(q.JoinLeft) != 1 || q.JoinLeft[0] != "R.id" || q.JoinRight[0] != "S.id" {
		t.Errorf("join cols: %v = %v", q.JoinLeft, q.JoinRight)
	}
	if len(q.Columns) != 2 {
		t.Errorf("select list: %v", q.Columns)
	}
}

func TestParseJoinColumnNormalization(t *testing.T) {
	// Reversed qualification must be normalized so JoinLeft belongs to R.
	q, err := Parse("SELECT * FROM R JOIN S ON S.id = R.id")
	if err != nil {
		t.Fatal(err)
	}
	if q.JoinLeft[0] != "R.id" || q.JoinRight[0] != "S.id" {
		t.Errorf("normalization failed: %v = %v", q.JoinLeft, q.JoinRight)
	}
}

func TestParseNaturalJoin(t *testing.T) {
	q, err := Parse("select * from R natural join S")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Natural || q.Right != "S" {
		t.Errorf("natural join parse: %+v", q)
	}
}

func TestParseWhere(t *testing.T) {
	q, err := Parse("SELECT * FROM R WHERE (id >= 2 AND NOT name = 'x''y') OR id <> 7")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where == nil {
		t.Fatal("nil WHERE")
	}
	s := q.Where.String()
	for _, want := range []string{">= 2", "NOT", "'x''y'", "<> 7", "OR"} {
		if !strings.Contains(s, want) {
			t.Errorf("WHERE %q missing %q", s, want)
		}
	}
}

func TestParseLiterals(t *testing.T) {
	q, err := Parse("SELECT * FROM R WHERE id = -5 OR score = 1.25 OR ok = TRUE OR ok = false")
	if err != nil {
		t.Fatal(err)
	}
	s := q.Where.String()
	for _, want := range []string{"-5", "1.25", "true", "false"} {
		if !strings.Contains(s, want) {
			t.Errorf("literals %q missing %q", s, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select * from",
		"select from R",
		"select * R",
		"select * from R join S",        // missing ON
		"select * from R join S on id",  // missing '='
		"select * from R where",         // missing expr
		"select * from R where (id = 1", // unbalanced paren
		"select * from R where id = 'x", // unterminated string
		"select * from R; garbage",      // trailing input
		"select a. from R",              // dangling qualifier
		"select * from R where id @ 3",  // bad char
		"select * from R natural S",     // NATURAL without JOIN
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestTreeEvaluation(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse("SELECT name, city FROM R JOIN S ON R.id = S.id WHERE city <> 'z'")
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Tree().Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("eval len = %d, want 2\n%v", out.Len(), out)
	}
	if out.Schema().Arity() != 2 {
		t.Errorf("eval arity = %d, want 2", out.Schema().Arity())
	}
}

func TestTreeSingleRelation(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse("SELECT name FROM R WHERE id > 1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Tree().Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("eval len = %d, want 2", out.Len())
	}
}

func TestNaturalJoinTreeEvaluation(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse("SELECT * FROM R NATURAL JOIN S")
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Tree().Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 { // ids 2 and 3 overlap
		t.Errorf("natural join len = %d, want 2", out.Len())
	}
}

// Canonical queries render as written, and every rendering re-parses to
// itself; a FLOAT literal keeps its point, so it does not come back as
// an INT.
func TestQueryStringRoundtrip(t *testing.T) {
	inputs := []string{
		"SELECT * FROM R",
		"SELECT name, city FROM R JOIN S ON R.id = S.id",
		"SELECT * FROM R NATURAL JOIN S",
		"SELECT * FROM R WHERE id = 1",
		"SELECT * FROM R WHERE (f = 2.0 OR f = -0.0)",
	}
	for _, in := range inputs {
		q, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if q.String() != in {
			t.Errorf("Parse(%q) renders as %q", in, q.String())
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", q.String(), err)
		}
		if q2.String() != q.String() {
			t.Errorf("String roundtrip: %q -> %q", q.String(), q2.String())
		}
	}
}

func TestParseMultiAttributeJoin(t *testing.T) {
	q, err := Parse("SELECT * FROM R JOIN S ON R.id = S.id AND R.name = S.city")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.JoinLeft) != 2 || q.JoinLeft[1] != "R.name" || q.JoinRight[1] != "S.city" {
		t.Errorf("multi-attr join cols: %v = %v", q.JoinLeft, q.JoinRight)
	}
}

func TestLexerStrings(t *testing.T) {
	toks, err := lex("'a''b' 12 x_y <= <>")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokString || toks[0].text != "a'b" {
		t.Errorf("string token: %+v", toks[0])
	}
	if toks[1].kind != tokNumber || toks[2].kind != tokIdent {
		t.Errorf("token kinds: %+v %+v", toks[1], toks[2])
	}
	if toks[3].text != "<=" || toks[4].text != "<>" {
		t.Errorf("operators: %+v %+v", toks[3], toks[4])
	}
}

func TestParseAggregate(t *testing.T) {
	q, err := Parse("SELECT SUM(amount) FROM Claims WHERE amount > 10")
	if err != nil {
		t.Fatal(err)
	}
	if q.Aggregate == nil || q.Aggregate.Func != "SUM" || q.Aggregate.Column != "amount" {
		t.Fatalf("aggregate: %+v", q.Aggregate)
	}
	if q.Where == nil || q.Columns != nil {
		t.Errorf("query: %+v", q)
	}
	// COUNT(*) is allowed, SUM(*) is not.
	q2, err := Parse("SELECT count(*) FROM R")
	if err != nil || q2.Aggregate.Func != "COUNT" || q2.Aggregate.Column != "*" {
		t.Errorf("COUNT(*): %+v, %v", q2.Aggregate, err)
	}
	if _, err := Parse("SELECT SUM(*) FROM R"); err == nil {
		t.Error("SUM(*) accepted")
	}
	if _, err := Parse("SELECT AVG( FROM R"); err == nil {
		t.Error("unclosed aggregate accepted")
	}
	// A column that merely looks like a function name still parses.
	q3, err := Parse("SELECT sum FROM R")
	if err != nil || q3.Aggregate != nil || q3.Columns[0] != "sum" {
		t.Errorf("bare 'sum' column: %+v, %v", q3, err)
	}
	// String rendering round-trips.
	if got := q.String(); got != "SELECT SUM(amount) FROM Claims WHERE amount > 10" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseDistinct(t *testing.T) {
	q, err := Parse("SELECT DISTINCT name FROM R")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct || len(q.Columns) != 1 {
		t.Errorf("distinct parse: %+v", q)
	}
	if got := q.String(); got != "SELECT DISTINCT name FROM R" {
		t.Errorf("String() = %q", got)
	}
	q2, err := Parse("SELECT DISTINCT * FROM R NATURAL JOIN S")
	if err != nil || !q2.Distinct || q2.Columns != nil {
		t.Errorf("distinct star: %+v, %v", q2, err)
	}
}

func TestParseUnion(t *testing.T) {
	q, err := Parse("SELECT * FROM A UNION SELECT * FROM B")
	if err != nil {
		t.Fatal(err)
	}
	if q.UnionWith != "B" || q.UnionAll {
		t.Errorf("union parse: %+v", q)
	}
	q2, err := Parse("SELECT * FROM A UNION ALL SELECT * FROM B")
	if err != nil || !q2.UnionAll {
		t.Errorf("union all parse: %+v, %v", q2, err)
	}
	if q2.String() != "SELECT * FROM A UNION ALL SELECT * FROM B" {
		t.Errorf("union rendering: %q", q2.String())
	}
	bad := []string{
		"SELECT a FROM A UNION SELECT * FROM B",                     // projection operand
		"SELECT * FROM A WHERE a = 1 UNION SELECT * FROM B",         // filtered operand
		"SELECT * FROM A UNION SELECT a FROM B",                     // non-star right side
		"SELECT * FROM A UNION",                                     // missing operand
		"SELECT * FROM A JOIN B ON A.x = B.x UNION SELECT * FROM C", // join operand
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}
