package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/relation"
)

// Query is a parsed SQL query in structured form, before conversion to an
// algebra tree. The mediator inspects it to decompose the global query.
type Query struct {
	// Distinct marks SELECT DISTINCT queries.
	Distinct bool
	// Columns is the select list; nil means '*'.
	Columns []string
	// Aggregate is set for aggregate queries ("SELECT SUM(col) FROM R");
	// Columns is nil in that case.
	Aggregate *AggregateSpec
	// Left and Right are the relation names in the FROM clause. Right is
	// empty for single-relation queries.
	Left, Right string
	// Natural marks a NATURAL JOIN.
	Natural bool
	// JoinLeft/JoinRight are the ON join columns (parallel lists).
	JoinLeft, JoinRight []string
	// Where is the optional WHERE predicate.
	Where algebra.Expr
	// MoreJoins holds the joins beyond the first ("A JOIN B ... JOIN C
	// ..."), in order. The two-party delivery protocols handle a single
	// join; chains are executed as successive joins (paper §8) by
	// mediation.Network.Query.
	MoreJoins []JoinStep
	// UnionWith names the second relation of a set-union query
	// ("SELECT * FROM A UNION [ALL] SELECT * FROM B").
	UnionWith string
	// UnionAll keeps duplicates (UNION ALL).
	UnionAll bool
}

// JoinStep is one additional join of a chained FROM clause.
type JoinStep struct {
	// Relation is the newly joined relation.
	Relation string
	// Natural marks a NATURAL JOIN step.
	Natural bool
	// OnLeft/OnRight are the raw ON column pairs (unresolved: which side
	// belongs to the accumulated intermediate is decided at execution).
	OnLeft, OnRight []string
}

// AggregateSpec describes a single aggregate select ("SUM(amount)").
type AggregateSpec struct {
	// Func is one of "SUM", "COUNT", "AVG".
	Func string
	// Column is the aggregated column; "*" only for COUNT.
	Column string
}

// parser is a standard recursive-descent parser over the token stream.
type parser struct {
	toks []token
	i    int
	src  string
}

// Parse parses an SQL string into a Query.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	// allow a trailing semicolon
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("trailing input %q", p.peek().text)
	}
	return q, nil
}

// Tree converts the parsed query into an algebra tree: scans at the leaves,
// an optional join, then selection, then projection — the shape the
// mediator's decomposition (Listing 1) expects.
func (q *Query) Tree() algebra.Node {
	var n algebra.Node = algebra.Scan{Relation: q.Left}
	if q.Right != "" {
		n = algebra.JoinNode{
			Left:      algebra.Scan{Relation: q.Left},
			Right:     algebra.Scan{Relation: q.Right},
			LeftCols:  q.JoinLeft,
			RightCols: q.JoinRight,
			Natural:   q.Natural,
		}
	}
	if q.Where != nil {
		n = algebra.SelectNode{Pred: q.Where, Child: n}
	}
	if q.Columns != nil {
		n = algebra.ProjectNode{Cols: q.Columns, Child: n}
	}
	return n
}

// String renders the query back to SQL (normalized).
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	switch {
	case q.Aggregate != nil:
		b.WriteString(q.Aggregate.Func)
		b.WriteByte('(')
		b.WriteString(q.Aggregate.Column)
		b.WriteByte(')')
	case q.Columns == nil:
		b.WriteString("*")
	default:
		b.WriteString(strings.Join(q.Columns, ", "))
	}
	b.WriteString(" FROM ")
	b.WriteString(q.Left)
	if q.Right != "" {
		if q.Natural {
			b.WriteString(" NATURAL JOIN ")
			b.WriteString(q.Right)
		} else {
			b.WriteString(" JOIN ")
			b.WriteString(q.Right)
			b.WriteString(" ON ")
			for i := range q.JoinLeft {
				if i > 0 {
					b.WriteString(" AND ")
				}
				b.WriteString(q.JoinLeft[i])
				b.WriteString(" = ")
				b.WriteString(q.JoinRight[i])
			}
		}
	}
	for _, step := range q.MoreJoins {
		if step.Natural {
			b.WriteString(" NATURAL JOIN ")
			b.WriteString(step.Relation)
			continue
		}
		b.WriteString(" JOIN ")
		b.WriteString(step.Relation)
		b.WriteString(" ON ")
		for i := range step.OnLeft {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(step.OnLeft[i])
			b.WriteString(" = ")
			b.WriteString(step.OnRight[i])
		}
	}
	if q.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(q.Where.String())
	}
	if q.UnionWith != "" {
		b.WriteString(" UNION ")
		if q.UnionAll {
			b.WriteString("ALL ")
		}
		b.WriteString("SELECT * FROM ")
		b.WriteString(q.UnionWith)
	}
	return b.String()
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("sqlparse: offset %d: expected %s, got %q", t.pos, kw, t.text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("sqlparse: offset %d: expected %q, got %q", t.pos, sym, t.text)
	}
	return nil
}

// columnName parses an optionally qualified column name: ident [ '.' ident ].
func (p *parser) columnName() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqlparse: offset %d: expected column name, got %q", t.pos, t.text)
	}
	name := t.text
	if p.peek().kind == tokSymbol && p.peek().text == "." {
		p.next()
		t2 := p.next()
		if t2.kind != tokIdent {
			return "", fmt.Errorf("sqlparse: offset %d: expected column after '.', got %q", t2.pos, t2.text)
		}
		name = name + "." + t2.text
	}
	return name, nil
}

// tryAggregate recognizes "FUNC ( column )" or "COUNT ( * )" at the start
// of a select list.
func (p *parser) tryAggregate() (*AggregateSpec, bool, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, false, nil
	}
	fn := strings.ToUpper(t.text)
	if fn != "SUM" && fn != "COUNT" && fn != "AVG" {
		return nil, false, nil
	}
	if p.i+1 >= len(p.toks) || p.toks[p.i+1].kind != tokSymbol || p.toks[p.i+1].text != "(" {
		return nil, false, nil
	}
	p.next() // func name
	p.next() // '('
	spec := &AggregateSpec{Func: fn}
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		if fn != "COUNT" {
			return nil, false, fmt.Errorf("sqlparse: offset %d: %s(*) is not supported", p.peek().pos, fn)
		}
		p.next()
		spec.Column = "*"
	} else {
		c, err := p.columnName()
		if err != nil {
			return nil, false, err
		}
		spec.Column = c
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, false, err
	}
	return spec, true, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	if p.peek().kind == tokKeyword && p.peek().text == "DISTINCT" {
		p.next()
		q.Distinct = true
	}
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.next()
	} else if agg, ok, err := p.tryAggregate(); err != nil {
		return nil, err
	} else if ok {
		q.Aggregate = agg
	} else {
		for {
			c, err := p.columnName()
			if err != nil {
				return nil, err
			}
			q.Columns = append(q.Columns, c)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("sqlparse: offset %d: expected relation name, got %q", t.pos, t.text)
	}
	q.Left = t.text

	first := true
	for {
		var step JoinStep
		switch {
		case p.peek().kind == tokKeyword && p.peek().text == "NATURAL":
			p.next()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			rt := p.next()
			if rt.kind != tokIdent {
				return nil, fmt.Errorf("sqlparse: offset %d: expected relation name, got %q", rt.pos, rt.text)
			}
			step = JoinStep{Relation: rt.text, Natural: true}
		case p.peek().kind == tokKeyword && p.peek().text == "JOIN":
			p.next()
			rt := p.next()
			if rt.kind != tokIdent {
				return nil, fmt.Errorf("sqlparse: offset %d: expected relation name, got %q", rt.pos, rt.text)
			}
			step = JoinStep{Relation: rt.text}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			for {
				l, err := p.columnName()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol("="); err != nil {
					return nil, err
				}
				r, err := p.columnName()
				if err != nil {
					return nil, err
				}
				step.OnLeft = append(step.OnLeft, l)
				step.OnRight = append(step.OnRight, r)
				if p.peek().kind == tokKeyword && p.peek().text == "AND" {
					p.next()
					continue
				}
				break
			}
		default:
			if first {
				// single-relation query
			}
			goto joinsDone
		}
		if first {
			q.Right = step.Relation
			q.Natural = step.Natural
			for i := range step.OnLeft {
				l, r := step.OnLeft[i], step.OnRight[i]
				// Normalize: the column qualified by (or belonging to) the
				// left relation goes into JoinLeft. A pair whose two sides
				// name the same relation, and a self-join, have no side to
				// prefer, so they keep their written order; swapping them
				// would make the rendering flip on every re-parse.
				if q.Left != q.Right {
					lrel, _, _ := qualifier(l) // "" when unqualified
					rrel, _, _ := qualifier(r)
					if (lrel == q.Right && rrel != q.Right) || (rrel == q.Left && lrel != q.Left) {
						l, r = r, l
					}
				}
				q.JoinLeft = append(q.JoinLeft, l)
				q.JoinRight = append(q.JoinRight, r)
			}
			first = false
		} else {
			q.MoreJoins = append(q.MoreJoins, step)
		}
	}
joinsDone:

	if p.peek().kind == tokKeyword && p.peek().text == "WHERE" {
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.peek().kind == tokKeyword && p.peek().text == "UNION" {
		p.next()
		if p.peek().kind == tokKeyword && p.peek().text == "ALL" {
			p.next()
			q.UnionAll = true
		}
		if q.Right != "" || q.Columns != nil || q.Aggregate != nil || q.Where != nil {
			return nil, fmt.Errorf("sqlparse: UNION supports only \"SELECT * FROM R\" operands")
		}
		if err := p.expectKeyword("SELECT"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("*"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("FROM"); err != nil {
			return nil, err
		}
		rt := p.next()
		if rt.kind != tokIdent {
			return nil, fmt.Errorf("sqlparse: offset %d: expected relation name, got %q", rt.pos, rt.text)
		}
		q.UnionWith = rt.text
	}
	return q, nil
}

func qualifier(name string) (rel, col string, ok bool) {
	i := strings.IndexByte(name, '.')
	if i <= 0 || i == len(name)-1 {
		return "", "", false
	}
	return name[:i], name[i+1:], true
}

// parseOr := parseAnd (OR parseAnd)*
func (p *parser) parseOr() (algebra.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokKeyword && p.peek().text == "OR" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = algebra.Or{Left: l, Right: r}
	}
	return l, nil
}

// parseAnd := parseNot (AND parseNot)*
func (p *parser) parseAnd() (algebra.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokKeyword && p.peek().text == "AND" {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = algebra.And{Left: l, Right: r}
	}
	return l, nil
}

// parseNot := NOT parseNot | parseComparison
func (p *parser) parseNot() (algebra.Expr, error) {
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" {
		p.next()
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return algebra.Not{Inner: inner}, nil
	}
	return p.parseComparison()
}

// parseComparison := '(' parseOr ')' | primary [op primary]
func (p *parser) parseComparison() (algebra.Expr, error) {
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokSymbol {
		var op algebra.CompareOp
		matched := true
		switch p.peek().text {
		case "=":
			op = algebra.OpEq
		case "<>", "!=":
			op = algebra.OpNe
		case "<":
			op = algebra.OpLt
		case "<=":
			op = algebra.OpLe
		case ">":
			op = algebra.OpGt
		case ">=":
			op = algebra.OpGe
		default:
			matched = false
		}
		if matched {
			p.next()
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return algebra.Compare{Op: op, Left: l, Right: r}, nil
		}
	}
	return l, nil
}

// parsePrimary := column | number | string | TRUE | FALSE
func (p *parser) parsePrimary() (algebra.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokIdent:
		name, err := p.columnName()
		if err != nil {
			return nil, err
		}
		return algebra.ColumnRef{Name: name}, nil
	case tokNumber:
		p.next()
		if strings.ContainsRune(t.text, '.') {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlparse: offset %d: bad float %q", t.pos, t.text)
			}
			return algebra.Literal{Value: relation.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlparse: offset %d: bad integer %q", t.pos, t.text)
		}
		return algebra.Literal{Value: relation.Int(i)}, nil
	case tokString:
		p.next()
		return algebra.Literal{Value: relation.String_(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.next()
			return algebra.Literal{Value: relation.Bool(true)}, nil
		case "FALSE":
			p.next()
			return algebra.Literal{Value: relation.Bool(false)}, nil
		}
	}
	return nil, fmt.Errorf("sqlparse: offset %d: expected value or column, got %q", t.pos, t.text)
}
