// Package das implements the Database-as-a-Service substrate of the
// paper's Section 3 protocol (after Hacıgümüş, Iyer, Li, Mehrotra,
// SIGMOD'02): bucketization of the join attribute's active domain, index
// tables mapping partitions to opaque index values, encrypted relations
// R^S(Etuple, A^S_join) whose etuple seals one partition's rows, and the
// server/client query split
//
//	R_C = q_S(R1^S, R2^S) = σ_CondS(R1^S × R2^S)
//	q_C(decrypt(R_C)) = σ_CondC(decrypt(R_C)),  CondC: R1.A_join = R2.A_join
//
// where CondS is the disjunction over index pairs of overlapping
// partitions. The mediation layer (internal/mediation) orchestrates who
// computes what; this package holds the mechanics.
package das

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/relation"
)

// Strategy named one of several partitionings of the active domain.
//
// Deprecated: DAS has one partitioning, equi-depth intervals (see
// EquiDepthPartitions). Zero is the only accepted value and means
// equi-depth.
type Strategy uint8

// Partition is one partition of the active domain: the closed value
// interval [Lo, Hi], whose bounds are of one kind.
type Partition struct {
	Lo, Hi relation.Value
}

// Contains reports whether the partition covers v.
func (p Partition) Contains(v relation.Value) bool {
	if v.Kind() != p.Lo.Kind() {
		return false
	}
	return p.Lo.Compare(v) <= 0 && v.Compare(p.Hi) <= 0
}

// Overlaps reports whether two partitions (possibly produced by
// different sources) can share a value: their intervals intersect.
func (p Partition) Overlaps(q Partition) bool {
	if p.Lo.Kind() != q.Lo.Kind() {
		return false
	}
	return p.Lo.Compare(q.Hi) <= 0 && q.Lo.Compare(p.Hi) <= 0
}

// PartitionDomain is EquiDepthPartitions for strategy zero.
//
// Deprecated: use EquiDepthPartitions. Any strategy but zero is
// unknown.
// seclint:source plaintext bucket domain (partitioning sees every value)
func PartitionDomain(dom []relation.Value, k int, strategy Strategy) ([]Partition, error) {
	if strategy != 0 {
		return nil, fmt.Errorf("das: unknown strategy %d", strategy)
	}
	return EquiDepthPartitions(dom, k)
}

// EquiDepthPartitions splits a non-empty active domain (sorted distinct
// values, as produced by Relation.ActiveDomain) into min(k, |dom|)
// intervals of ⌊|dom|/k⌋ or ⌈|dom|/k⌉ consecutive values each: how many
// partitions there are and how many values each holds follow from k and
// |dom| alone, not from how the values are spread.
// seclint:source plaintext bucket domain (partitioning sees every value)
func EquiDepthPartitions(dom []relation.Value, k int) ([]Partition, error) {
	if len(dom) == 0 {
		return nil, fmt.Errorf("das: empty active domain")
	}
	if k < 1 {
		return nil, fmt.Errorf("das: partition count %d < 1", k)
	}
	k = min(k, len(dom))
	per, rem := len(dom)/k, len(dom)%k
	parts := make([]Partition, 0, k)
	i := 0
	for p := 0; p < k; p++ {
		n := per
		if p < rem {
			n++
		}
		parts = append(parts, Partition{Lo: dom[i], Hi: dom[i+n-1]})
		i += n
	}
	return parts, nil
}

// IndexValue is the opaque identifier of a partition; the paper's
// "index". BuildIndexTable draws it from [0, n) for n partitions, and
// the wire carries it as a uvarint.
type IndexValue uint64

// IndexEntry maps one partition to its index value.
type IndexEntry struct {
	Partition Partition
	Index     IndexValue
}

// IndexTable is ITable_{Ri.Ajoin}: the mapping from partitions of the
// active domain to index values. The table itself is confidential (it
// reveals partition ranges) and travels hybrid-encrypted to the client.
type IndexTable struct {
	// Attribute is the indexed join attribute name.
	Attribute string
	// Entries are the partitions with their index values.
	Entries []IndexEntry
}

// BuildIndexTable labels a table's n partitions with a fresh, uniformly
// random permutation of [0, n). The labels play the role of the
// paper's "collision-free hash of partition properties": unique, and,
// drawn independently of the partitions' order, they reveal nothing
// about the partitions but their number n, which a party that sees the
// runs learns anyway. Small labels cost a byte each on the wire.
func BuildIndexTable(attribute string, parts []Partition) (*IndexTable, error) {
	it := &IndexTable{Attribute: attribute, Entries: make([]IndexEntry, len(parts))}
	for i, p := range parts {
		it.Entries[i] = IndexEntry{Partition: p, Index: IndexValue(i)}
	}
	// Fisher–Yates over crypto/rand.
	for i := len(parts) - 1; i > 0; i-- {
		j, err := rand.Int(rand.Reader, big.NewInt(int64(i+1)))
		if err != nil {
			return nil, fmt.Errorf("das: index label: %w", err)
		}
		e, f := &it.Entries[i], &it.Entries[j.Int64()]
		e.Index, f.Index = f.Index, e.Index
	}
	return it, nil
}

// IndexOf returns the index value of the partition containing v.
func (it *IndexTable) IndexOf(v relation.Value) (IndexValue, error) {
	for _, e := range it.Entries {
		if e.Partition.Contains(v) {
			return e.Index, nil
		}
	}
	return 0, fmt.Errorf("das: value %v not covered by index table for %s", v, it.Attribute)
}

// OverlapPairs computes, for two index tables, the index-value pairs of
// overlapping partitions — the p1 ∩ p2 ≠ ∅ pairs that constitute CondS.
// This runs at the client (client setting of the query translator), which
// is the only party holding both plaintext index tables.
func OverlapPairs(it1, it2 *IndexTable) []IndexPair {
	var pairs []IndexPair
	for _, e1 := range it1.Entries {
		for _, e2 := range it2.Entries {
			if e1.Partition.Overlaps(e2.Partition) {
				pairs = append(pairs, IndexPair{I1: e1.Index, I2: e2.Index})
			}
		}
	}
	return pairs
}

// MaySatisfy reports whether some value covered by the partition could
// satisfy "value op bound" — the satisfiability test behind selection
// pushdown: the client includes a partition's index value in the allowed
// set exactly when this returns true, so the mediator-side filter is
// always a superset of the true selection (no false negatives).
func (p Partition) MaySatisfy(op algebra.CompareOp, bound relation.Value) bool {
	if p.Lo.Kind() != bound.Kind() {
		return false
	}
	lo, hi := p.Lo.Compare(bound), p.Hi.Compare(bound)
	switch op {
	case algebra.OpEq:
		return lo <= 0 && hi >= 0
	case algebra.OpNe:
		// Only an exactly-[c,c] interval is all-c.
		return !(lo == 0 && hi == 0)
	case algebra.OpLt:
		return lo < 0
	case algebra.OpLe:
		return lo <= 0
	case algebra.OpGt:
		return hi > 0
	case algebra.OpGe:
		return hi >= 0
	default:
		return true
	}
}

// AllowedIndexes returns the index values of all partitions that may
// satisfy the condition — the transported form of a pushed-down selection.
func (it *IndexTable) AllowedIndexes(op algebra.CompareOp, bound relation.Value) []IndexValue {
	var out []IndexValue
	for _, e := range it.Entries {
		if e.Partition.MaySatisfy(op, bound) {
			out = append(out, e.Index)
		}
	}
	return out
}
