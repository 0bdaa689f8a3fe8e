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
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/relation"
)

// Strategy selects how the active domain is partitioned.
type Strategy uint8

const (
	// EquiWidth splits the active value range into equal-width intervals
	// (INT attributes only).
	EquiWidth Strategy = iota
	// EquiDepth splits the sorted active domain into partitions holding
	// (nearly) equal numbers of distinct values (any ordered kind).
	EquiDepth
	// HashBuckets assigns values to buckets by a hash of their canonical
	// encoding (any kind, including small categorical domains).
	HashBuckets
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case EquiWidth:
		return "equi-width"
	case EquiDepth:
		return "equi-depth"
	case HashBuckets:
		return "hash-buckets"
	default:
		return "unknown"
	}
}

// Partition is one partition of the active domain: either a closed value
// interval [Lo, Hi] or an explicit member set (hash bucket).
type Partition struct {
	// IsInterval distinguishes interval partitions from bucket partitions.
	IsInterval bool
	// Lo and Hi are the inclusive interval bounds (interval partitions).
	Lo, Hi relation.Value
	// Members is the sorted member list (bucket partitions).
	Members []relation.Value
	// Bucket is the bucket ordinal (bucket partitions); two sources using
	// the same bucket count assign a value to the same ordinal, which is
	// how bucket overlap is decided without comparing member sets.
	Bucket int
	// BucketCount is the total number of buckets of the partitioning this
	// bucket belongs to.
	BucketCount int
}

// Contains reports whether the partition covers v.
func (p Partition) Contains(v relation.Value) bool {
	if p.IsInterval {
		if v.Kind() != p.Lo.Kind() {
			return false
		}
		return p.Lo.Compare(v) <= 0 && v.Compare(p.Hi) <= 0
	}
	if p.BucketCount > 0 {
		return bucketOf(v, p.BucketCount) == p.Bucket
	}
	for _, m := range p.Members {
		if m.Kind() == v.Kind() && m.Equal(v) {
			return true
		}
	}
	return false
}

// Overlaps reports whether two partitions (possibly produced by different
// sources with different strategies) can share a value: interval-interval
// by range intersection, bucket-bucket by ordinal (same bucket count) or
// member intersection, and mixed by membership in the interval.
func (p Partition) Overlaps(q Partition) bool {
	switch {
	case p.IsInterval && q.IsInterval:
		if p.Lo.Kind() != q.Lo.Kind() {
			return false
		}
		return p.Lo.Compare(q.Hi) <= 0 && q.Lo.Compare(p.Hi) <= 0
	case !p.IsInterval && !q.IsInterval:
		if p.BucketCount > 0 && p.BucketCount == q.BucketCount {
			return p.Bucket == q.Bucket
		}
		// Cross-partitioning buckets: compare explicit member lists (the
		// hash-assignment shortcut of Contains does not apply across
		// different bucket counts).
		for _, m := range p.Members {
			for _, n := range q.Members {
				if m.Kind() == n.Kind() && m.Equal(n) {
					return true
				}
			}
		}
		return false
	case p.IsInterval:
		return q.overlapsInterval(p)
	default:
		return p.overlapsInterval(q)
	}
}

func (p Partition) overlapsInterval(iv Partition) bool {
	for _, m := range p.Members {
		if iv.Contains(m) {
			return true
		}
	}
	return false
}

// bucketOf hashes a value into one of k buckets (FNV-1a over the canonical
// encoding; both sources compute the same assignment for the same k).
func bucketOf(v relation.Value, k int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range v.Encode(nil) {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(k))
}

// PartitionDomain partitions a non-empty active domain (sorted distinct
// values, as produced by Relation.ActiveDomain) into at most k partitions
// using the given strategy.
// seclint:source plaintext bucket domain (partitioning sees every value)
func PartitionDomain(dom []relation.Value, k int, strategy Strategy) ([]Partition, error) {
	if len(dom) == 0 {
		return nil, fmt.Errorf("das: empty active domain")
	}
	if k < 1 {
		return nil, fmt.Errorf("das: partition count %d < 1", k)
	}
	switch strategy {
	case EquiWidth:
		return equiWidth(dom, k)
	case EquiDepth:
		return equiDepth(dom, k), nil
	case HashBuckets:
		return hashBuckets(dom, k), nil
	default:
		return nil, fmt.Errorf("das: unknown strategy %d", strategy)
	}
}

func equiWidth(dom []relation.Value, k int) ([]Partition, error) {
	if dom[0].Kind() != relation.KindInt {
		return nil, fmt.Errorf("das: equi-width needs INT attributes, got %v", dom[0].Kind())
	}
	lo, hi := dom[0].AsInt(), dom[len(dom)-1].AsInt()
	span := hi - lo + 1
	if int64(k) > span {
		k = int(span)
	}
	width := span / int64(k)
	rem := span % int64(k)
	var parts []Partition
	cur := lo
	for i := 0; i < k; i++ {
		w := width
		if int64(i) < rem {
			w++
		}
		parts = append(parts, Partition{
			IsInterval: true,
			Lo:         relation.Int(cur),
			Hi:         relation.Int(cur + w - 1),
		})
		cur += w
	}
	return parts, nil
}

func equiDepth(dom []relation.Value, k int) []Partition {
	if k > len(dom) {
		k = len(dom)
	}
	per := len(dom) / k
	rem := len(dom) % k
	var parts []Partition
	i := 0
	for p := 0; p < k; p++ {
		n := per
		if p < rem {
			n++
		}
		parts = append(parts, Partition{
			IsInterval: true,
			Lo:         dom[i],
			Hi:         dom[i+n-1],
		})
		i += n
	}
	return parts
}

func hashBuckets(dom []relation.Value, k int) []Partition {
	members := make([][]relation.Value, k)
	for _, v := range dom {
		b := bucketOf(v, k)
		members[b] = append(members[b], v)
	}
	var parts []Partition
	for b, ms := range members {
		if len(ms) == 0 {
			continue
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].Compare(ms[j]) < 0 })
		parts = append(parts, Partition{Members: ms, Bucket: b, BucketCount: k})
	}
	return parts
}

// IndexValue is the opaque identifier of a partition; the paper's "index".
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

// BuildIndexTable assigns a fresh random unique index value to every
// partition. Random identifiers play the role of the paper's
// "collision-free hash of partition properties" while revealing nothing
// about the partitions themselves.
func BuildIndexTable(attribute string, parts []Partition) (*IndexTable, error) {
	it := &IndexTable{Attribute: attribute}
	seen := make(map[IndexValue]bool, len(parts))
	for _, p := range parts {
		for {
			var buf [8]byte
			if _, err := rand.Read(buf[:]); err != nil {
				return nil, fmt.Errorf("das: index value: %w", err)
			}
			iv := IndexValue(binary.BigEndian.Uint64(buf[:]))
			if !seen[iv] {
				seen[iv] = true
				it.Entries = append(it.Entries, IndexEntry{Partition: p, Index: iv})
				break
			}
		}
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
	if p.IsInterval {
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
	for _, m := range p.Members {
		if m.Kind() != bound.Kind() {
			continue
		}
		c := m.Compare(bound)
		ok := false
		switch op {
		case algebra.OpEq:
			ok = c == 0
		case algebra.OpNe:
			ok = c != 0
		case algebra.OpLt:
			ok = c < 0
		case algebra.OpLe:
			ok = c <= 0
		case algebra.OpGt:
			ok = c > 0
		case algebra.OpGe:
			ok = c >= 0
		default:
			ok = true
		}
		if ok {
			return true
		}
	}
	return false
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
