package algebra

import (
	"fmt"
	"strings"

	"github.com/secmediation/secmediation/internal/relation"
)

// Select returns σ_pred(r): the tuples of r satisfying pred. The predicate
// is type-checked against r's schema before evaluation.
func Select(r *relation.Relation, pred Expr) (*relation.Relation, error) {
	k, err := pred.Check(r.Schema())
	if err != nil {
		return nil, err
	}
	if k != relation.KindBool {
		return nil, fmt.Errorf("algebra: select predicate has kind %v, want BOOL", k)
	}
	out := relation.New(r.Schema())
	for _, t := range r.Tuples() {
		v, err := pred.Eval(r.Schema(), t)
		if err != nil {
			return nil, err
		}
		if v.AsBool() {
			if err := out.Append(t); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Project returns π_cols(r) with bag semantics (duplicates preserved, as in
// SQL's SELECT without DISTINCT).
func Project(r *relation.Relation, cols ...string) (*relation.Relation, error) {
	schema, err := r.Schema().Project(cols...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = r.Schema().IndexOf(c)
	}
	out := relation.New(schema)
	for _, t := range r.Tuples() {
		nt := make(relation.Tuple, len(idx))
		for i, j := range idx {
			nt[i] = t[j]
		}
		if err := out.Append(nt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CrossProduct returns r × s with colliding column names qualified by
// relation name.
func CrossProduct(r, s *relation.Relation) (*relation.Relation, error) {
	schema, err := r.Schema().Concat(s.Schema())
	if err != nil {
		return nil, err
	}
	out := relation.New(schema)
	for _, a := range r.Tuples() {
		for _, b := range s.Tuples() {
			t := make(relation.Tuple, 0, len(a)+len(b))
			t = append(t, a...)
			t = append(t, b...)
			if err := out.Append(t); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// EquiJoin returns r ⋈ s on the given column pairs (leftCols[i] =
// rightCols[i]); both value columns are kept (qualified), matching the
// paper's treatment where R1.Ajoin and R2.Ajoin both appear and the client
// may post-filter on their equality. A hash join is used: the smaller
// relation is built into a hash table on the encoded join key.
// seclint:source plaintext equi-join over tuple values
func EquiJoin(r, s *relation.Relation, leftCols, rightCols []string) (*relation.Relation, error) {
	if len(leftCols) != len(rightCols) || len(leftCols) == 0 {
		return nil, fmt.Errorf("algebra: equijoin needs equal non-empty column lists, got %d/%d", len(leftCols), len(rightCols))
	}
	li := make([]int, len(leftCols))
	ri := make([]int, len(rightCols))
	for i := range leftCols {
		li[i] = r.Schema().IndexOf(leftCols[i])
		if li[i] < 0 {
			return nil, fmt.Errorf("algebra: equijoin: %s has no column %q", r.Schema().Relation, leftCols[i])
		}
		ri[i] = s.Schema().IndexOf(rightCols[i])
		if ri[i] < 0 {
			return nil, fmt.Errorf("algebra: equijoin: %s has no column %q", s.Schema().Relation, rightCols[i])
		}
		lk := r.Schema().Columns[li[i]].Kind
		rk := s.Schema().Columns[ri[i]].Kind
		if lk != rk {
			return nil, fmt.Errorf("algebra: equijoin: column kinds differ (%v vs %v) for %s/%s", lk, rk, leftCols[i], rightCols[i])
		}
	}
	schema, err := r.Schema().Concat(s.Schema())
	if err != nil {
		return nil, err
	}
	// Build on the smaller side: its rows are grouped by encoded join
	// key, and each probe row's group is looked up once, so the output is
	// counted before it is built.
	build, probe := s, r
	buildIdx, probeIdx := ri, li
	swapped := false
	if r.Len() < s.Len() {
		build, probe = r, s
		buildIdx, probeIdx = li, ri
		swapped = true
	}
	var key []byte
	appendKey := func(t relation.Tuple, idx []int) []byte {
		key = key[:0]
		for _, i := range idx {
			key = t[i].Encode(key)
		}
		return key
	}
	groupOf := make(map[string]int, build.Len())
	var groups [][]relation.Tuple
	for _, t := range build.Tuples() {
		k := appendKey(t, buildIdx)
		g, ok := groupOf[string(k)]
		if !ok {
			g = len(groups)
			groupOf[string(k)] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], t)
	}
	match := make([]int, probe.Len())
	total := 0
	for p, t := range probe.Tuples() {
		g, ok := groupOf[string(appendKey(t, probeIdx))]
		if !ok {
			g = -1
		} else {
			total += len(groups[g])
		}
		match[p] = g
	}
	// Every joined tuple is cut from one slab of values.
	width := r.Schema().Arity() + s.Schema().Arity()
	slab := make([]relation.Value, 0, total*width)
	out := relation.New(schema)
	out.Grow(total)
	for p, pt := range probe.Tuples() {
		if match[p] < 0 {
			continue
		}
		for _, bt := range groups[match[p]] {
			a, b := pt, bt
			if swapped {
				a, b = bt, pt
			}
			start := len(slab)
			slab = append(append(slab, a...), b...)
			if err := out.Append(slab[start:len(slab):len(slab)]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// NaturalJoin joins r and s on all columns that share an unqualified name,
// projecting the shared columns once (classic natural join semantics).
// seclint:source plaintext natural join over tuple values
func NaturalJoin(r, s *relation.Relation) (*relation.Relation, error) {
	var shared []string
	for _, c := range r.Schema().Columns {
		if s.Schema().IndexOf(c.Name) >= 0 {
			shared = append(shared, c.Name)
		}
	}
	if len(shared) == 0 {
		return CrossProduct(r, s)
	}
	joined, err := EquiJoin(r, s, shared, shared)
	if err != nil {
		return nil, err
	}
	// Project away the duplicated right-side join columns.
	var keep []string
	for _, c := range joined.Schema().Columns {
		drop := false
		for _, sc := range shared {
			if c.Name == s.Schema().Relation+"."+sc {
				drop = true
				break
			}
		}
		if !drop {
			keep = append(keep, c.Name)
		}
	}
	projected, err := Project(joined, keep...)
	if err != nil {
		return nil, err
	}
	return UnqualifyUnique(projected)
}

// UnqualifyUnique renames qualified columns ("R.a") back to their base
// names wherever that introduces no ambiguity. Natural joins and the
// mediation client use it so join results compose cleanly into successive
// queries (the mediator-hierarchy scenario).
func UnqualifyUnique(r *relation.Relation) (*relation.Relation, error) {
	cols := append([]relation.Column(nil), r.Schema().Columns...)
	base := func(name string) string {
		if i := strings.IndexByte(name, '.'); i > 0 && i < len(name)-1 {
			return name[i+1:]
		}
		return name
	}
	counts := map[string]int{}
	for _, c := range cols {
		counts[base(c.Name)]++
	}
	for i, c := range cols {
		b := base(c.Name)
		if b != c.Name && counts[b] == 1 {
			cols[i].Name = b
		}
	}
	schema, err := relation.NewSchema(r.Schema().Relation, cols...)
	if err != nil {
		return nil, err
	}
	return relation.FromTuples(schema, r.Tuples()...)
}

// Union returns r ∪ s with bag semantics (UNION ALL); schemas must be
// compatible.
func Union(r, s *relation.Relation) (*relation.Relation, error) {
	if !r.Schema().Equal(s.Schema()) {
		return nil, fmt.Errorf("algebra: union: incompatible schemas %s and %s", r.Schema(), s.Schema())
	}
	out := relation.New(r.Schema())
	for _, t := range r.Tuples() {
		if err := out.Append(t); err != nil {
			return nil, err
		}
	}
	for _, t := range s.Tuples() {
		if err := out.Append(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Distinct removes duplicate tuples (set semantics).
func Distinct(r *relation.Relation) *relation.Relation {
	out := relation.New(r.Schema())
	seen := make(map[string]bool, r.Len())
	for _, t := range r.Tuples() {
		k := string(t.Encode(nil))
		if !seen[k] {
			seen[k] = true
			out.MustAppend(t)
		}
	}
	return out
}

// Intersect returns the set intersection of r and s (distinct tuples that
// appear in both); schemas must be compatible. The commutative protocol's
// intersection operation reduces to this on plaintexts.
func Intersect(r, s *relation.Relation) (*relation.Relation, error) {
	if !r.Schema().Equal(s.Schema()) {
		return nil, fmt.Errorf("algebra: intersect: incompatible schemas %s and %s", r.Schema(), s.Schema())
	}
	in := make(map[string]bool, s.Len())
	for _, t := range s.Tuples() {
		in[string(t.Encode(nil))] = true
	}
	out := relation.New(r.Schema())
	emitted := make(map[string]bool, r.Len())
	for _, t := range r.Tuples() {
		k := string(t.Encode(nil))
		if in[k] && !emitted[k] {
			emitted[k] = true
			out.MustAppend(t)
		}
	}
	return out, nil
}
