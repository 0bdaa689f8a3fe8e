package algebra

import (
	"fmt"
	"strings"

	"github.com/secmediation/secmediation/internal/relation"
)

// Catalog resolves base relation names to relations; the mediator and each
// datasource implement it over their own stores.
type Catalog interface {
	// Lookup returns the named base relation.
	Lookup(name string) (*relation.Relation, error)
}

// MapCatalog is a Catalog backed by a map; the common in-memory case.
type MapCatalog map[string]*relation.Relation

// Lookup implements Catalog.
func (m MapCatalog) Lookup(name string) (*relation.Relation, error) {
	r, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("algebra: unknown relation %q", name)
	}
	return r, nil
}

// Node is a relational algebra tree node. The SQL2Algebra front end
// (internal/sqlparse) produces these; the mediator walks them to decompose
// global queries into partial queries (see internal/mediation).
type Node interface {
	// Eval evaluates the subtree against base relations from the catalog.
	Eval(cat Catalog) (*relation.Relation, error)
	// String renders the subtree in a compact algebra notation.
	String() string
}

// Scan is a leaf: a base relation reference. In the mediated setting scans
// become the partial queries "select * from R" shipped to datasources.
type Scan struct{ Relation string }

// Eval implements Node.
func (s Scan) Eval(cat Catalog) (*relation.Relation, error) { return cat.Lookup(s.Relation) }

func (s Scan) String() string { return s.Relation }

// SelectNode is σ_pred(child).
type SelectNode struct {
	Pred  Expr
	Child Node
}

// Eval implements Node.
func (n SelectNode) Eval(cat Catalog) (*relation.Relation, error) {
	r, err := n.Child.Eval(cat)
	if err != nil {
		return nil, err
	}
	return Select(r, n.Pred)
}

func (n SelectNode) String() string { return fmt.Sprintf("σ[%s](%s)", n.Pred, n.Child) }

// ProjectNode is π_cols(child).
type ProjectNode struct {
	Cols  []string
	Child Node
}

// Eval implements Node.
func (n ProjectNode) Eval(cat Catalog) (*relation.Relation, error) {
	r, err := n.Child.Eval(cat)
	if err != nil {
		return nil, err
	}
	return Project(r, n.Cols...)
}

func (n ProjectNode) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(n.Cols, ","), n.Child)
}

// JoinNode is an equi-join (or natural join) of two subtrees. LeftCols and
// RightCols are the join attribute lists; when Natural is set they are
// derived from shared column names at evaluation time and the duplicate
// columns are projected away.
type JoinNode struct {
	Left, Right         Node
	LeftCols, RightCols []string
	Natural             bool
}

// Eval implements Node.
func (n JoinNode) Eval(cat Catalog) (*relation.Relation, error) {
	l, err := n.Left.Eval(cat)
	if err != nil {
		return nil, err
	}
	r, err := n.Right.Eval(cat)
	if err != nil {
		return nil, err
	}
	if n.Natural {
		return NaturalJoin(l, r)
	}
	return EquiJoin(l, r, n.LeftCols, n.RightCols)
}

func (n JoinNode) String() string {
	if n.Natural {
		return fmt.Sprintf("(%s ⋈ %s)", n.Left, n.Right)
	}
	conds := make([]string, len(n.LeftCols))
	for i := range n.LeftCols {
		conds[i] = n.LeftCols[i] + "=" + n.RightCols[i]
	}
	return fmt.Sprintf("(%s ⋈[%s] %s)", n.Left, strings.Join(conds, ","), n.Right)
}

// Leaves returns the Scan leaves of the tree in left-to-right order; the
// mediator uses them to localize datasources (Listing 1, step 2).
func Leaves(n Node) []Scan {
	switch t := n.(type) {
	case Scan:
		return []Scan{t}
	case SelectNode:
		return Leaves(t.Child)
	case ProjectNode:
		return Leaves(t.Child)
	case JoinNode:
		return append(Leaves(t.Left), Leaves(t.Right)...)
	default:
		return nil
	}
}
