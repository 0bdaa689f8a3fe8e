package mediation

import (
	"fmt"
	"slices"

	"github.com/secmediation/secmediation/internal/relation"
)

// tupLayout is how the commutative and PM protocols seal Tup(a), the
// tuple set of one join value a, and how the client opens it. Every
// tuple of Tup(a) holds a on A_i, so the distinct columns of A_i are the
// set's fixed columns and travel once per set instead of once per row.
// When A_i covers every column (a NATURAL JOIN of equal schemas, or
// Intersect) nothing is fixed, so a row never has zero width.
//
// A source builds the layout from its partial query's JoinCols, the
// client from the A_i it resolves from its own query; the AAD binds the
// key positions, so a mediator that hands a source other join columns
// makes the sets fail to open instead of decoding shifted.
type tupLayout struct {
	schema relation.Schema
	// key holds the positions of A_i in JoinCols order: a row's join
	// key is its values there.
	key []int
	// fixed holds the distinct positions of key in ascending order, or
	// nil when they cover every column.
	fixed []int
	aad   []byte
}

// newTupLayout resolves joinCols against s. A column that does not
// resolve (unknown, or ambiguous in s) is an error.
func newTupLayout(s relation.Schema, joinCols []string, tag string) (tupLayout, error) {
	if len(joinCols) == 0 {
		return tupLayout{}, fmt.Errorf("tuple set of %s: no join columns", s.Relation)
	}
	l := tupLayout{schema: s, key: make([]int, len(joinCols))}
	for i, c := range joinCols {
		if l.key[i] = s.IndexOf(c); l.key[i] < 0 {
			return tupLayout{}, fmt.Errorf("tuple set of %s: no join column %q", s.Relation, c)
		}
	}
	l.fixed = slices.Clone(l.key)
	slices.Sort(l.fixed)
	l.fixed = slices.Compact(l.fixed)
	if len(l.fixed) == len(s.Columns) {
		l.fixed = nil
	}
	l.aad = s.AAD(tag, l.key...)
	return l, nil
}

// joinLayouts builds the client's layouts of both sides of a result.
// The two join column lists pair up column by column, so they must have
// one length.
func joinLayouts(s1, s2 relation.Schema, cols1, cols2 []string, tag string) (l1, l2 tupLayout, err error) {
	if len(cols1) != len(cols2) {
		return l1, l2, fmt.Errorf("join columns %v and %v do not pair up", cols1, cols2)
	}
	if l1, err = newTupLayout(s1, cols1, tag); err != nil {
		return l1, l2, err
	}
	l2, err = newTupLayout(s2, cols2, tag)
	return l1, l2, err
}

// encode writes one Tup(a).
func (l tupLayout) encode(tuples []relation.Tuple) ([]byte, error) {
	return relation.EncodeTupleSet(tuples, l.fixed)
}

// decode reads one opened Tup(a).
func (l tupLayout) decode(b []byte) ([]relation.Tuple, error) {
	return relation.DecodeTupleSet(l.schema, l.fixed, b)
}

// joinKey is the canonical encoding of a row's values on A_i, in
// JoinCols order: the bytes a source hashes a's root from.
func (l tupLayout) joinKey(t relation.Tuple) string {
	key := make([]relation.Value, len(l.key))
	for i, j := range l.key {
		key[i] = t[j]
	}
	return string(relation.EncodeValues(key, nil))
}
