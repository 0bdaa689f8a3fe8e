package das

import (
	"fmt"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/parallel"
	"github.com/secmediation/secmediation/internal/relation"
)

// EncTuple is one row of the encrypted relation R^S: the hybrid-encrypted
// tuple (etuple) plus the index value of each join attribute's partition.
// The paper treats a single join attribute; multiple entries in Index
// implement the multi-attribute extension (one index table per join
// attribute, CondS becoming a conjunction of per-attribute disjunctions).
type EncTuple struct {
	// Etuple is the sealed canonical tuple encoding (session ciphertext,
	// marshaled).
	Etuple []byte
	// Index holds a^S_join per join attribute, in join-column order.
	Index []IndexValue
}

// EncryptedRelation is R^S(Etuple, A^S_join, ...) together with the
// session-key material the client needs for decryptDAS.
type EncryptedRelation struct {
	// Name is the source relation name (schema metadata, not secret: the
	// mediator localized the source by name already).
	Name string
	// KeyShare is the hybrid session's share: what the client needs, with
	// its query key, to rebuild the session key.
	KeyShare []byte
	// Tuples are the encrypted rows.
	Tuples []EncTuple
}

// Len returns the number of encrypted tuples (visible to the mediator —
// the |R_i| leakage of Table 1).
func (er *EncryptedRelation) Len() int { return len(er.Tuples) }

// SealRelation produces R^S from a partial result: each tuple is sealed
// row-wise under the session, and annotated with the index values of its
// join attribute values (one per join column, parallel to the index
// tables). The caller seals the index tables under the same session, as
// the paper recommends. The per-tuple index+seal work fans out over a
// worker pool (workers as in parallel.Resolve) with tuple order preserved.
// seclint:sanitizer DAS encrypt boundary (tuples sealed, buckets indexed)
func SealRelation(r *relation.Relation, joinCols []string, its []*IndexTable, sess *hybrid.Session, workers int) (*EncryptedRelation, error) {
	if len(joinCols) == 0 || len(joinCols) != len(its) {
		return nil, fmt.Errorf("das: need one index table per join column, got %d/%d", len(joinCols), len(its))
	}
	idxs := make([]int, len(joinCols))
	for i, c := range joinCols {
		idxs[i] = r.Schema().IndexOf(c)
		if idxs[i] < 0 {
			return nil, fmt.Errorf("das: relation %s has no column %q", r.Schema().Relation, c)
		}
	}
	er := &EncryptedRelation{Name: r.Schema().Relation, KeyShare: sess.Share()}
	aad := []byte("das:etuple:" + r.Schema().Relation)
	tuples := r.Tuples()
	var err error
	er.Tuples, err = parallel.Map(len(tuples), workers, func(ti int) (EncTuple, error) {
		t := tuples[ti]
		iv := make([]IndexValue, len(joinCols))
		for i, ji := range idxs {
			v, err := its[i].IndexOf(t[ji])
			if err != nil {
				return EncTuple{}, err
			}
			iv[i] = v
		}
		ct, err := sess.Seal(t.Encode(nil), aad)
		if err != nil {
			return EncTuple{}, err
		}
		return EncTuple{Etuple: ct.Marshal(), Index: iv}, nil
	})
	if err != nil {
		return nil, err
	}
	return er, nil
}

// IndexPair is one disjunct of CondS for one attribute:
// R1^S.A = I1 ∧ R2^S.A = I2.
type IndexPair struct {
	I1, I2 IndexValue
}

// IndexFilter is one pushed-down selection over an indexed attribute: the
// tuple's index value at position Attr must be in Allowed. A filter is a
// sound over-approximation (partitions that may contain a satisfying value
// are allowed), so the client query still post-filters exactly.
type IndexFilter struct {
	// Attr is the position within EncTuple.Index.
	Attr int
	// Allowed lists the admissible index values.
	Allowed []IndexValue
}

// ServerQuery is q_S in transported form: for every join attribute, the
// disjunction of admissible index pairs (a tuple pair qualifies when every
// attribute's pair is admissible), plus optional pushed-down selection
// filters per side (the selection-pushdown extension).
type ServerQuery struct {
	PerAttr  [][]IndexPair
	Filters1 []IndexFilter
	Filters2 []IndexFilter
}

// BuildServerQuery computes q_S from the plaintext index tables of both
// sources — the query-translator step the client performs in the client
// setting.
func BuildServerQuery(its1, its2 []*IndexTable) (ServerQuery, error) {
	if len(its1) == 0 || len(its1) != len(its2) {
		return ServerQuery{}, fmt.Errorf("das: mismatched index table lists (%d vs %d)", len(its1), len(its2))
	}
	q := ServerQuery{PerAttr: make([][]IndexPair, len(its1))}
	for i := range its1 {
		q.PerAttr[i] = OverlapPairs(its1[i], its2[i])
	}
	return q, nil
}

// ServerResultPair is one row of R_C: the slots, into ServerResult.E1 and
// ServerResult.E2, of two etuples whose index values satisfied CondS.
type ServerResultPair struct {
	I, J uint32
}

// ServerResult is R_C = σ_CondS(R1^S × R2^S), still encrypted, in
// semi-join-reduced form: every etuple that occurs in some admissible pair
// is shipped once, together with |R_C|, and the pairs themselves are not
// shipped. The client, who holds both index tables, could rebuild them, so
// the reduced form discloses nothing R_C would not; the client recovers
// the join by an exact equi-join of the opened tables, because q_S has no
// false negatives. Both the client's opens and the das.result frame are
// |E1|+|E2|, not |R_C|.
type ServerResult struct {
	// E1 and E2 hold the surviving etuples of R1^S and R2^S, each exactly
	// once, in source order. They alias the sources' bytes.
	E1, E2 [][]byte
	// Size is |R_C|, the number of admissible pairs.
	Size int
	// Pairs lists R_C in evaluation order, for in-process callers that
	// measure it; the protocol neither ships nor reads it.
	Pairs []ServerResultPair
}

// ExecuteServerQuery evaluates q_S over the two encrypted relations. This
// is the mediator's computation: it sees only index values and ciphertext
// blobs. Implemented as a hash join on the first attribute's admissible
// pairs with residual filtering on the remaining attributes — semantically
// identical to σ_CondS(R1^S × R2^S). Pair order is a function of the
// inputs alone: R1 order, then q.PerAttr[0] order, then R2 order.
func ExecuteServerQuery(r1, r2 *EncryptedRelation, q ServerQuery) (*ServerResult, error) {
	if len(q.PerAttr) == 0 {
		return nil, fmt.Errorf("das: empty server query")
	}
	// Admissibility maps: attr -> I1 -> set of I2. The first attribute
	// drives the join, so it also keeps each I1's partners in query order
	// (ranging over the set would make R_C's order a map-iteration
	// accident).
	adm := make([]map[IndexValue]map[IndexValue]bool, len(q.PerAttr))
	partners := make(map[IndexValue][]IndexValue)
	for a, pairs := range q.PerAttr {
		adm[a] = make(map[IndexValue]map[IndexValue]bool, len(pairs))
		for _, p := range pairs {
			m, ok := adm[a][p.I1]
			if !ok {
				m = make(map[IndexValue]bool)
				adm[a][p.I1] = m
			}
			if a == 0 && !m[p.I2] {
				partners[p.I1] = append(partners[p.I1], p.I2)
			}
			m[p.I2] = true
		}
	}
	filter1, err := buildFilter(q.Filters1)
	if err != nil {
		return nil, err
	}
	filter2, err := buildFilter(q.Filters2)
	if err != nil {
		return nil, err
	}
	// Group r2 tuple positions by first-attribute index, applying the
	// pushed-down filters.
	byIdx := make(map[IndexValue][]int, len(r2.Tuples))
	for i, t := range r2.Tuples {
		if len(t.Index) < len(q.PerAttr) {
			return nil, fmt.Errorf("das: R2 tuple has %d index values, query has %d attributes", len(t.Index), len(q.PerAttr))
		}
		if !filter2.admits(t.Index) {
			continue
		}
		byIdx[t.Index[0]] = append(byIdx[t.Index[0]], i)
	}
	res := &ServerResult{}
	// Pairs carry R2 positions until the survivors of R2 are known; the
	// R1 side is visited in source order, so its slots are final.
	survives2 := make([]bool, len(r2.Tuples))
	for _, t1 := range r1.Tuples {
		if len(t1.Index) < len(q.PerAttr) {
			return nil, fmt.Errorf("das: R1 tuple has %d index values, query has %d attributes", len(t1.Index), len(q.PerAttr))
		}
		if !filter1.admits(t1.Index) {
			continue
		}
		shipped := false
		for _, i2 := range partners[t1.Index[0]] {
			for _, j := range byIdx[i2] {
				t2 := r2.Tuples[j]
				match := true
				for a := 1; a < len(q.PerAttr); a++ {
					if !adm[a][t1.Index[a]][t2.Index[a]] {
						match = false
						break
					}
				}
				if !match {
					continue
				}
				if !shipped {
					res.E1 = append(res.E1, t1.Etuple)
					shipped = true
				}
				survives2[j] = true
				res.Pairs = append(res.Pairs, ServerResultPair{I: uint32(len(res.E1) - 1), J: uint32(j)})
			}
		}
	}
	slot2 := make([]uint32, len(r2.Tuples))
	for j, t2 := range r2.Tuples {
		if survives2[j] {
			slot2[j] = uint32(len(res.E2))
			res.E2 = append(res.E2, t2.Etuple)
		}
	}
	for p := range res.Pairs {
		res.Pairs[p].J = slot2[res.Pairs[p].J]
	}
	res.Size = len(res.Pairs)
	return res, nil
}

// Opener decrypts session ciphertexts; *hybrid.Receiver implements it.
type Opener interface {
	Open(*hybrid.Ciphertext, []byte) ([]byte, error)
}

// DecryptServerResult is decryptDAS followed by the client query q_C: it
// opens every etuple of the two tables once (the index values are not
// part of the etuple encoding), then applies CondC (true join-attribute
// equality on every join column) as one algebra.EquiJoin of the two
// opened tables. That is exact because q_S has no false negatives: every
// equal-keyed pair among the shipped tuples is a pair of R_C. It returns
// the join and the number of false positives q_C discarded, Size minus
// the join's rows. The result comes from a peer: a repeated etuple, or a
// Size outside [max(|E1|, |E2|, rows), |E1|·|E2|], is an error. The
// table decryptions fan out over a worker pool; the join is sequential,
// so the result is worker-count independent.
// seclint:source decrypted DAS server result tuples
func DecryptServerResult(res *ServerResult, recv1, recv2 Opener,
	schema1, schema2 relation.Schema, joinCols1, joinCols2 []string, workers int) (*relation.Relation, int, error) {

	n1, n2 := len(res.E1), len(res.E2)
	// Every shipped etuple is in at least one of the Size pairs, and no
	// more than |E1|·|E2| pairs exist ((Size-1)/n1 >= n2 is Size > n1·n2
	// without the overflow).
	if res.Size < n1 || res.Size < n2 || (n1 == 0 && res.Size != 0) || (n1 > 0 && (res.Size-1)/n1 >= n2) {
		return nil, 0, fmt.Errorf("das: server result claims %d pairs over tables of %d and %d etuples", res.Size, n1, n2)
	}
	if err := distinct(res.E1, "R1"); err != nil {
		return nil, 0, err
	}
	if err := distinct(res.E2, "R2"); err != nil {
		return nil, 0, err
	}
	aad1 := []byte("das:etuple:" + schema1.Relation)
	aad2 := []byte("das:etuple:" + schema2.Relation)
	opened, err := parallel.Map(n1+n2, workers, func(i int) (relation.Tuple, error) {
		if i < n1 {
			return openTuple(recv1, res.E1[i], aad1, schema1)
		}
		return openTuple(recv2, res.E2[i-n1], aad2, schema2)
	})
	if err != nil {
		return nil, 0, err
	}
	r1, err := relation.FromTuples(schema1, opened[:n1]...)
	if err != nil {
		return nil, 0, err
	}
	r2, err := relation.FromTuples(schema2, opened[n1:]...)
	if err != nil {
		return nil, 0, err
	}
	out, err := algebra.EquiJoin(r1, r2, joinCols1, joinCols2)
	if err != nil {
		return nil, 0, err
	}
	if out.Len() > res.Size {
		return nil, 0, fmt.Errorf("das: server result claims %d pairs, but %d tuple pairs join", res.Size, out.Len())
	}
	return out, res.Size - out.Len(), nil
}

// distinct rejects a table that holds some etuple twice: a mediator cannot
// forge an etuple, but replaying one would inflate the client's join.
func distinct(etuples [][]byte, side string) error {
	seen := make(map[string]struct{}, len(etuples))
	for i, e := range etuples {
		if _, dup := seen[string(e)]; dup {
			return fmt.Errorf("das: server result repeats an etuple of %s at slot %d", side, i)
		}
		seen[string(e)] = struct{}{}
	}
	return nil
}

// compiledFilter is the evaluable form of a filter list.
type compiledFilter []struct {
	attr    int
	allowed map[IndexValue]bool
}

func buildFilter(fs []IndexFilter) (compiledFilter, error) {
	out := make(compiledFilter, 0, len(fs))
	for _, f := range fs {
		if f.Attr < 0 {
			return nil, fmt.Errorf("das: negative filter attribute")
		}
		m := make(map[IndexValue]bool, len(f.Allowed))
		for _, iv := range f.Allowed {
			m[iv] = true
		}
		out = append(out, struct {
			attr    int
			allowed map[IndexValue]bool
		}{attr: f.Attr, allowed: m})
	}
	return out, nil
}

func (cf compiledFilter) admits(index []IndexValue) bool {
	for _, f := range cf {
		if f.attr >= len(index) || !f.allowed[index[f.attr]] {
			return false
		}
	}
	return true
}

// seclint:source decrypted DAS tuple
func openTuple(r Opener, blob, aad []byte, schema relation.Schema) (relation.Tuple, error) {
	ct, err := hybrid.UnmarshalCiphertext(blob)
	if err != nil {
		return nil, err
	}
	pt, err := r.Open(ct, aad)
	if err != nil {
		return nil, err
	}
	return relation.DecodeTuple(schema, pt)
}
