// Package algebra implements a small relational algebra engine: predicate
// expressions and operator trees (select, project, join, cross product,
// union, rename) over the relation substrate.
//
// The mediator of the MMM system transforms SQL queries into such "algebra
// trees" (relational operators at inner nodes, partial queries at the
// leaves) via the SQL2Algebra component; see internal/sqlparse for the
// front end and internal/mediation for query decomposition.
package algebra

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/secmediation/secmediation/internal/relation"
)

// Expr is a boolean or scalar expression evaluated against one tuple.
type Expr interface {
	// Eval evaluates the expression against t under schema s.
	Eval(s relation.Schema, t relation.Tuple) (relation.Value, error)
	// Check verifies the expression is well-typed under s and returns the
	// result kind.
	Check(s relation.Schema) (relation.Kind, error)
	// String renders the expression in SQL-like syntax.
	String() string
}

// ColumnRef references a column by (possibly qualified) name.
type ColumnRef struct{ Name string }

// Eval implements Expr.
func (c ColumnRef) Eval(s relation.Schema, t relation.Tuple) (relation.Value, error) {
	i := s.IndexOf(c.Name)
	if i < 0 {
		return relation.Value{}, fmt.Errorf("algebra: unknown or ambiguous column %q in %s", c.Name, s)
	}
	return t[i], nil
}

// Check implements Expr.
func (c ColumnRef) Check(s relation.Schema) (relation.Kind, error) {
	return s.KindOf(c.Name)
}

func (c ColumnRef) String() string { return c.Name }

// Literal is a constant value.
type Literal struct{ Value relation.Value }

// Eval implements Expr.
func (l Literal) Eval(relation.Schema, relation.Tuple) (relation.Value, error) {
	return l.Value, nil
}

// Check implements Expr.
func (l Literal) Check(relation.Schema) (relation.Kind, error) {
	if !l.Value.Valid() {
		return relation.KindInvalid, fmt.Errorf("algebra: invalid literal")
	}
	return l.Value.Kind(), nil
}

// String renders the literal as SQL that parses back to the same value
// and kind.
func (l Literal) String() string {
	switch l.Value.Kind() {
	case relation.KindString:
		return "'" + strings.ReplaceAll(l.Value.AsString(), "'", "''") + "'"
	case relation.KindFloat:
		// No exponent, which the lexer does not read, and a point even
		// in an integral value, which would otherwise parse as an INT.
		s := strconv.FormatFloat(l.Value.AsFloat(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	return l.Value.String()
}

// CompareOp enumerates comparison operators.
type CompareOp uint8

// Comparison operators in SQL syntax order.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Compare applies a comparison operator to two sub-expressions of the same
// kind, yielding a boolean.
type Compare struct {
	Op          CompareOp
	Left, Right Expr
}

// Check implements Expr.
func (c Compare) Check(s relation.Schema) (relation.Kind, error) {
	lk, err := c.Left.Check(s)
	if err != nil {
		return relation.KindInvalid, err
	}
	rk, err := c.Right.Check(s)
	if err != nil {
		return relation.KindInvalid, err
	}
	if lk != rk {
		return relation.KindInvalid, fmt.Errorf("algebra: comparing %v with %v in %s", lk, rk, c)
	}
	return relation.KindBool, nil
}

// Eval implements Expr.
func (c Compare) Eval(s relation.Schema, t relation.Tuple) (relation.Value, error) {
	l, err := c.Left.Eval(s, t)
	if err != nil {
		return relation.Value{}, err
	}
	r, err := c.Right.Eval(s, t)
	if err != nil {
		return relation.Value{}, err
	}
	if l.Kind() != r.Kind() {
		return relation.Value{}, fmt.Errorf("algebra: comparing %v with %v", l.Kind(), r.Kind())
	}
	cmp := l.Compare(r)
	var out bool
	switch c.Op {
	case OpEq:
		out = cmp == 0
	case OpNe:
		out = cmp != 0
	case OpLt:
		out = cmp < 0
	case OpLe:
		out = cmp <= 0
	case OpGt:
		out = cmp > 0
	case OpGe:
		out = cmp >= 0
	default:
		return relation.Value{}, fmt.Errorf("algebra: unknown comparison op %d", c.Op)
	}
	return relation.Bool(out), nil
}

func (c Compare) String() string {
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// And is boolean conjunction.
type And struct{ Left, Right Expr }

// Check implements Expr.
func (a And) Check(s relation.Schema) (relation.Kind, error) {
	return checkBoolPair(s, a.Left, a.Right, "AND")
}

// Eval implements Expr.
func (a And) Eval(s relation.Schema, t relation.Tuple) (relation.Value, error) {
	l, err := evalBool(a.Left, s, t)
	if err != nil {
		return relation.Value{}, err
	}
	if !l {
		return relation.Bool(false), nil
	}
	r, err := evalBool(a.Right, s, t)
	if err != nil {
		return relation.Value{}, err
	}
	return relation.Bool(r), nil
}

func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.Left, a.Right) }

// Or is boolean disjunction.
type Or struct{ Left, Right Expr }

// Check implements Expr.
func (o Or) Check(s relation.Schema) (relation.Kind, error) {
	return checkBoolPair(s, o.Left, o.Right, "OR")
}

// Eval implements Expr.
func (o Or) Eval(s relation.Schema, t relation.Tuple) (relation.Value, error) {
	l, err := evalBool(o.Left, s, t)
	if err != nil {
		return relation.Value{}, err
	}
	if l {
		return relation.Bool(true), nil
	}
	r, err := evalBool(o.Right, s, t)
	if err != nil {
		return relation.Value{}, err
	}
	return relation.Bool(r), nil
}

func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.Left, o.Right) }

// Not is boolean negation.
type Not struct{ Inner Expr }

// Check implements Expr.
func (n Not) Check(s relation.Schema) (relation.Kind, error) {
	k, err := n.Inner.Check(s)
	if err != nil {
		return relation.KindInvalid, err
	}
	if k != relation.KindBool {
		return relation.KindInvalid, fmt.Errorf("algebra: NOT over %v", k)
	}
	return relation.KindBool, nil
}

// Eval implements Expr.
func (n Not) Eval(s relation.Schema, t relation.Tuple) (relation.Value, error) {
	v, err := evalBool(n.Inner, s, t)
	if err != nil {
		return relation.Value{}, err
	}
	return relation.Bool(!v), nil
}

func (n Not) String() string { return fmt.Sprintf("(NOT %s)", n.Inner) }

func checkBoolPair(s relation.Schema, l, r Expr, op string) (relation.Kind, error) {
	lk, err := l.Check(s)
	if err != nil {
		return relation.KindInvalid, err
	}
	rk, err := r.Check(s)
	if err != nil {
		return relation.KindInvalid, err
	}
	if lk != relation.KindBool || rk != relation.KindBool {
		return relation.KindInvalid, fmt.Errorf("algebra: %s over %v and %v", op, lk, rk)
	}
	return relation.KindBool, nil
}

func evalBool(e Expr, s relation.Schema, t relation.Tuple) (bool, error) {
	v, err := e.Eval(s, t)
	if err != nil {
		return false, err
	}
	if v.Kind() != relation.KindBool {
		return false, fmt.Errorf("algebra: predicate evaluated to %v, want BOOL", v.Kind())
	}
	return v.AsBool(), nil
}
