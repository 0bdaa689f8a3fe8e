package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Tuple is one row of a relation: values in schema column order.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Equal reports value-wise equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically column by column. Both tuples
// must conform to the same schema.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}

// Encode appends the canonical encodings of the tuple's values to dst:
// the hashing and equality encoding (grouping keys, set operations),
// never the wire encoding. A tuple travels in a tuple set
// (EncodeTupleSet), which writes no kind bytes.
func (t Tuple) Encode(dst []byte) []byte {
	for _, v := range t {
		dst = v.Encode(dst)
	}
	return dst
}

// Relation is a bag (multiset) of tuples under a schema. The in-memory
// representation keeps insertion order; multiset semantics are used for
// equality so that protocol results can be compared independent of
// delivery order.
type Relation struct {
	schema Schema
	tuples []Tuple
}

// New creates an empty relation with the given schema.
func New(s Schema) *Relation {
	return &Relation{schema: s}
}

// FromTuples creates a relation and appends the given tuples, validating
// each against the schema.
func FromTuples(s Schema, tuples ...Tuple) (*Relation, error) {
	r := New(s)
	r.Grow(len(tuples))
	for _, t := range tuples {
		if err := r.Append(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustFromTuples is FromTuples but panics on error; for tests and examples.
func MustFromTuples(s Schema, tuples ...Tuple) *Relation {
	r, err := FromTuples(s, tuples...)
	if err != nil {
		panic(err)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples (with multiplicity).
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the i-th tuple. The caller must not mutate it.
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Tuples returns the underlying tuple slice. The caller must not mutate it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Append validates t against the schema and adds it to the relation.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("relation: %s: tuple arity %d, schema arity %d", r.schema.Relation, len(t), r.schema.Arity())
	}
	for i, v := range t {
		if v.Kind() != r.schema.Columns[i].Kind {
			return fmt.Errorf("relation: %s: column %s wants %v, got %v", r.schema.Relation, r.schema.Columns[i].Name, r.schema.Columns[i].Kind, v.Kind())
		}
	}
	r.tuples = append(r.tuples, t)
	return nil
}

// Grow makes room for n more tuples, so that as many Appends do not
// reallocate.
func (r *Relation) Grow(n int) { r.tuples = slices.Grow(r.tuples, n) }

// MustAppend is Append but panics on error.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{schema: r.schema.Rename(r.schema.Relation), tuples: make([]Tuple, len(r.tuples))}
	for i, t := range r.tuples {
		c.tuples[i] = t.Clone()
	}
	return c
}

// Rename returns a shallow copy of the relation under a new name.
func (r *Relation) Rename(name string) *Relation {
	return &Relation{schema: r.schema.Rename(name), tuples: r.tuples}
}

// Sort orders the tuples lexicographically in place and returns the
// relation for chaining. Protocol results are sorted before comparison in
// tests.
func (r *Relation) Sort() *Relation {
	sort.Slice(r.tuples, func(i, j int) bool { return r.tuples[i].Compare(r.tuples[j]) < 0 })
	return r
}

// EqualMultiset reports whether two relations contain the same tuples with
// the same multiplicities, regardless of order. Schemas must be compatible
// (Equal). Tuples match as Sort orders them, so a FLOAT NaN matches NaN,
// as it does in a join. It does not mutate either relation.
func (r *Relation) EqualMultiset(o *Relation) bool {
	if !r.schema.Equal(o.schema) || len(r.tuples) != len(o.tuples) {
		return false
	}
	a := r.Clone().Sort()
	b := o.Clone().Sort()
	for i := range a.tuples {
		if a.tuples[i].Compare(b.tuples[i]) != 0 {
			return false
		}
	}
	return true
}

// ActiveDomain returns the sorted set of distinct values appearing in the
// named column — domactive(A) in the paper's notation. The commutative and
// PM protocols operate on exactly this set. Distinct is Value.Equal: a
// FLOAT column keeps every NaN row and merges −0 with +0.
func (r *Relation) ActiveDomain(column string) ([]Value, error) {
	i := r.schema.IndexOf(column)
	if i < 0 {
		return nil, fmt.Errorf("relation: %s has no column %q", r.schema.Relation, column)
	}
	if r.schema.Columns[i].Kind == KindInt {
		return r.intDomain(i), nil
	}
	// Sort row positions, not a copy of the column, and count the
	// distinct values before collecting them.
	order := make([]int, len(r.tuples))
	for k := range order {
		order[k] = k
	}
	slices.SortFunc(order, func(a, b int) int { return r.tuples[a][i].Compare(r.tuples[b][i]) })
	col := func(k int) Value { return r.tuples[order[k]][i] }
	first := func(k int) bool { return k == 0 || !col(k-1).Equal(col(k)) }
	n := 0
	for k := range order {
		if first(k) {
			n++
		}
	}
	out := make([]Value, 0, n)
	for k := range order {
		if first(k) {
			out = append(out, col(k))
		}
	}
	return out, nil
}

// intDomain is ActiveDomain of the INT column i: its keys sort as int64,
// not through Value.Compare.
func (r *Relation) intDomain(i int) []Value {
	keys := make([]int64, len(r.tuples))
	for k, t := range r.tuples {
		keys[k] = t[i].i()
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	out := make([]Value, len(keys))
	for k, n := range keys {
		out[k] = Int(n)
	}
	return out
}

// Filter returns a new relation containing the tuples for which keep
// returns true.
func (r *Relation) Filter(keep func(Tuple) bool) *Relation {
	out := New(r.schema)
	for _, t := range r.tuples {
		if keep(t) {
			out.tuples = append(out.tuples, t)
		}
	}
	return out
}

// String renders the relation as an aligned text table, sorted output not
// implied; mainly for examples and debugging.
func (r *Relation) String() string {
	var b strings.Builder
	widths := make([]int, r.schema.Arity())
	header := make([]string, r.schema.Arity())
	for i, c := range r.schema.Columns {
		header[i] = c.Name
		widths[i] = len(c.Name)
	}
	rows := make([][]string, len(r.tuples))
	for ri, t := range r.tuples {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		rows[ri] = row
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	if r.schema.Relation != "" {
		fmt.Fprintf(&b, "-- %s (%d tuples)\n", r.schema.Relation, len(r.tuples))
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// KeyGroup is one group of a composite-key grouping: the (possibly
// multi-column) join key and the tuples carrying it.
type KeyGroup struct {
	Key    []Value
	Tuples []Tuple
}

// EncodeValues appends the canonical encodings of a value list — the
// composite-key analogue of Value.Encode, used by the protocols to treat a
// multi-attribute join key as one opaque byte string.
func EncodeValues(vals []Value, dst []byte) []byte {
	for _, v := range vals {
		dst = v.Encode(dst)
	}
	return dst
}

// GroupByColumns partitions the relation by the composite key over the
// named columns, returning groups sorted by key: each group is Tup(a)
// (paper, Section 4.1) for its key a. The protocols use it for single
// and composite join keys (the paper's multi-attribute future-work
// extension).
func (r *Relation) GroupByColumns(cols []string) ([]KeyGroup, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: GroupByColumns needs at least one column")
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = r.schema.IndexOf(c)
		if idx[i] < 0 {
			return nil, fmt.Errorf("relation: %s has no column %q", r.schema.Relation, c)
		}
	}
	byKey := make(map[string]*KeyGroup)
	var order []string
	for _, t := range r.tuples {
		key := make([]Value, len(idx))
		for i, j := range idx {
			key[i] = t[j]
		}
		k := string(EncodeValues(key, nil))
		g, ok := byKey[k]
		if !ok {
			g = &KeyGroup{Key: key}
			byKey[k] = g
			order = append(order, k)
		}
		g.Tuples = append(g.Tuples, t)
	}
	sort.Strings(order)
	out := make([]KeyGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out, nil
}
