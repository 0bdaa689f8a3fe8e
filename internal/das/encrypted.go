package das

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/parallel"
	"github.com/secmediation/secmediation/internal/relation"
)

// Run is one etuple of R^S: every row of the partial result whose
// indexed values fall in the same partitions, sealed together. The
// mediator only ever selects whole partitions, so the run is the unit
// it selects and the unit it ships. The paper treats a single join
// attribute; multiple entries in Index implement the multi-attribute
// extension (one index table per join attribute, CondS becoming a
// conjunction of per-attribute disjunctions).
type Run struct {
	// Index holds a^S_join per indexed column, in column order.
	Index []IndexValue
	// Rows is the number of rows in the run (visible to the mediator,
	// which sums them into |R_i| and multiplies them into |R_C|).
	Rows int
	// Sealed is the sealed relation.EncodeTupleSet of the run's rows
	// (session ciphertext, marshaled), bound to the relation's schema.
	Sealed []byte
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
	// Runs holds one run per distinct index vector, in ascending index
	// vector order. Index values are random, so the order says nothing
	// about the partitions' values, nor about the source's row order.
	Runs []Run
}

// Len returns the number of encrypted rows (visible to the mediator —
// the |R_i| leakage of Table 1).
func (er *EncryptedRelation) Len() int {
	n := 0
	for _, run := range er.Runs {
		n += run.Rows
	}
	return n
}

// runAAD binds a run to its relation's schema.
func runAAD(schema relation.Schema) []byte { return schema.AAD("das:run") }

// SealRelation produces R^S from a partial result: each distinct value
// of a join column is indexed once, the tuples are grouped by their
// index vectors (one index value per join column, parallel to the index
// tables), and each group is sealed under the session as one run. The
// caller seals the index tables under the same session, as the paper
// recommends. The seals fan out over a worker pool (workers as in
// parallel.Resolve).
// seclint:sanitizer DAS encrypt boundary (runs sealed, buckets indexed)
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
	// IndexOf scans its table, so each distinct value is looked up once.
	// Each distinct index vector is one run; rows are counted per run,
	// then placed run by run (in relation order within a run), so no run
	// grows a list of its own.
	known := make([]map[string]IndexValue, len(idxs))
	for i := range known {
		known[i] = make(map[string]IndexValue)
	}
	w := len(idxs)
	runOf := make(map[string]int)
	var vecs []IndexValue // run r's index vector is vecs[r*w:(r+1)*w]
	var counts []int
	tuples := r.Tuples()
	rowRun := make([]int, len(tuples))
	var key, enc []byte
	for row, t := range tuples {
		key = key[:0]
		for i, ji := range idxs {
			enc = t[ji].Encode(enc[:0])
			iv, ok := known[i][string(enc)]
			if !ok {
				var err error
				if iv, err = its[i].IndexOf(t[ji]); err != nil {
					return nil, err
				}
				known[i][string(enc)] = iv
			}
			key = binary.BigEndian.AppendUint64(key, uint64(iv))
		}
		run, ok := runOf[string(key)]
		if !ok {
			run = len(counts)
			runOf[string(key)] = run
			counts = append(counts, 0)
			for a := 0; a < w; a++ {
				vecs = append(vecs, IndexValue(binary.BigEndian.Uint64(key[8*a:])))
			}
		}
		rowRun[row] = run
		counts[run]++
	}
	vec := func(run int) []IndexValue { return vecs[run*w : (run+1)*w : (run+1)*w] }
	// Runs ascend by index vector.
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(vec(a), vec(b)) })
	first := make([]int, len(counts))
	n := 0
	for _, run := range order {
		first[run] = n
		n += counts[run]
	}
	sorted := make([]relation.Tuple, len(tuples))
	next := slices.Clone(first)
	for row, t := range tuples {
		sorted[next[rowRun[row]]] = t
		next[rowRun[row]]++
	}
	aad := runAAD(r.Schema())
	runs, err := parallel.Map(len(order), workers, func(i int) (Run, error) {
		run := order[i]
		rows := sorted[first[run] : first[run]+counts[run]]
		n, err := relation.TupleSetLen(rows, nil)
		if err != nil {
			return Run{}, err
		}
		sealed, err := sess.SealEncoded(n, func(dst []byte) ([]byte, error) {
			return relation.AppendTupleSet(dst, rows, nil)
		}, aad)
		if err != nil {
			return Run{}, err
		}
		return Run{Index: vec(run), Rows: len(rows), Sealed: sealed}, nil
	})
	if err != nil {
		return nil, err
	}
	return &EncryptedRelation{Name: r.Schema().Relation, KeyShare: sess.Share(), Runs: runs}, nil
}

// IndexPair is one disjunct of CondS for one attribute:
// R1^S.A = I1 ∧ R2^S.A = I2.
type IndexPair struct {
	I1, I2 IndexValue
}

// IndexFilter is one pushed-down selection over an indexed attribute: the
// run's index value at position Attr must be in Allowed. A filter is a
// sound over-approximation (partitions that may contain a satisfying value
// are allowed), so the client query still post-filters exactly.
type IndexFilter struct {
	// Attr is the position within Run.Index.
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

// ServerResult is R_C = σ_CondS(R1^S × R2^S), still encrypted, in
// semi-join-reduced form: every run that occurs in some admissible pair
// is shipped once, together with |R_C|, and the pairs themselves are not
// shipped. The client, who holds both index tables, could rebuild them, so
// the reduced form discloses nothing R_C would not; the client recovers
// the join by an exact equi-join of the opened rows, because q_S has no
// false negatives. The client's opens are the shipped runs, and the
// das.result frame is their rows plus a few bytes per run, not |R_C|.
type ServerResult struct {
	// E1 and E2 hold the surviving runs of R1^S and R2^S, each exactly
	// once, in the sources' run order. They alias the sources' bytes.
	E1, E2 [][]byte
	// Size is |R_C|, the number of admissible row pairs: the sum of
	// rows₁·rows₂ over the admissible run pairs.
	Size int
	// Pairs lists R_C for the benchmark alone: only ExecuteServerQuery
	// (benchonly.go) fills it, and the protocol neither ships nor reads
	// it.
	Pairs []ServerResultPair
}

// SelectRuns evaluates q_S over the two encrypted relations. This is the
// mediator's computation: it sees only index values, row counts and
// ciphertext blobs, and it counts R_C without listing it.
func SelectRuns(r1, r2 *EncryptedRelation, q ServerQuery) (*ServerResult, error) {
	m, err := matchRuns(r1, r2, q, nil)
	if err != nil {
		return nil, err
	}
	return m.result(r1, r2), nil
}

// runMatch is q_S evaluated at run granularity: which runs of each side
// occur in some admissible pair, and |R_C|.
type runMatch struct {
	keep1, keep2 []bool
	size         int
}

// result is the ServerResult of the match: the kept runs, in run order.
func (m runMatch) result(r1, r2 *EncryptedRelation) *ServerResult {
	return &ServerResult{E1: keptRuns(r1.Runs, m.keep1), E2: keptRuns(r2.Runs, m.keep2), Size: m.size}
}

// keptRuns returns the sealed bytes of the kept runs, in run order.
func keptRuns(runs []Run, keep []bool) [][]byte {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([][]byte, 0, n)
	for i, run := range runs {
		if keep[i] {
			out = append(out, run.Sealed)
		}
	}
	return out
}

// matchRuns is the one evaluation of q_S: a hash join of runs on the
// first attribute's admissible pairs with residual filtering on the
// remaining attributes — semantically identical to σ_CondS(R1^S × R2^S),
// since a run pair qualifies exactly when each of its row pairs does.
// visit, when not nil, sees every admissible run pair (positions in
// r1.Runs and r2.Runs) in evaluation order: R1 run order, then
// q.PerAttr[0] order, then R2 run order. That order is a function of the
// inputs alone.
func matchRuns(r1, r2 *EncryptedRelation, q ServerQuery, visit func(i, j int)) (runMatch, error) {
	if len(q.PerAttr) == 0 {
		return runMatch{}, fmt.Errorf("das: empty server query")
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
		return runMatch{}, err
	}
	filter2, err := buildFilter(q.Filters2)
	if err != nil {
		return runMatch{}, err
	}
	// Group r2's runs by first-attribute index, applying the pushed-down
	// filters.
	byIdx := make(map[IndexValue][]int, len(r2.Runs))
	for j, run := range r2.Runs {
		if len(run.Index) < len(q.PerAttr) {
			return runMatch{}, fmt.Errorf("das: R2 run has %d index values, query has %d attributes", len(run.Index), len(q.PerAttr))
		}
		if filter2.admits(run.Index) {
			byIdx[run.Index[0]] = append(byIdx[run.Index[0]], j)
		}
	}
	m := runMatch{keep1: make([]bool, len(r1.Runs)), keep2: make([]bool, len(r2.Runs))}
	for i, run1 := range r1.Runs {
		if len(run1.Index) < len(q.PerAttr) {
			return runMatch{}, fmt.Errorf("das: R1 run has %d index values, query has %d attributes", len(run1.Index), len(q.PerAttr))
		}
		if !filter1.admits(run1.Index) {
			continue
		}
		for _, i2 := range partners[run1.Index[0]] {
			for _, j := range byIdx[i2] {
				run2 := r2.Runs[j]
				ok := true
				for a := 1; a < len(q.PerAttr); a++ {
					if !adm[a][run1.Index[a]][run2.Index[a]] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				m.keep1[i], m.keep2[j] = true, true
				m.size += run1.Rows * run2.Rows
				if visit != nil {
					visit(i, j)
				}
			}
		}
	}
	return m, nil
}

// Opener decrypts session ciphertexts; *hybrid.Receiver implements it.
type Opener interface {
	Open(*hybrid.Ciphertext, []byte) ([]byte, error)
}

// DecryptServerResult is decryptDAS followed by the client query q_C: it
// opens every run of the two tables once (the index values are not part
// of the run's plaintext), then applies CondC (true join-attribute
// equality on every join column) as one algebra.EquiJoin of the two
// opened tables. That is exact because q_S has no false negatives: every
// equal-keyed pair among the shipped rows is a pair of R_C. It returns
// the join and the number of false positives q_C discarded, Size minus
// the join's rows. The result comes from a peer: a repeated run, a run
// without rows, or a Size outside [max(n1, n2, joined rows), n1·n2] for
// n1 and n2 opened rows, is an error; the repeated run and the Size are
// the relay's doing and wrap ErrInconsistentResult. The run decryptions
// fan out over a worker pool; the join is sequential, so the result is
// worker-count independent.
// seclint:source decrypted DAS server result tuples
func DecryptServerResult(res *ServerResult, recv1, recv2 Opener,
	schema1, schema2 relation.Schema, joinCols1, joinCols2 []string, workers int) (*relation.Relation, int, error) {

	if err := distinct(res.E1, "R1"); err != nil {
		return nil, 0, err
	}
	if err := distinct(res.E2, "R2"); err != nil {
		return nil, 0, err
	}
	e1 := len(res.E1)
	aad1, aad2 := runAAD(schema1), runAAD(schema2)
	opened, err := parallel.Map(e1+len(res.E2), workers, func(i int) ([]byte, error) {
		if i < e1 {
			return openRun(recv1, res.E1[i], aad1, schema1)
		}
		return openRun(recv2, res.E2[i-e1], aad2, schema2)
	})
	if err != nil {
		return nil, 0, err
	}
	r1, err := relation.DecodeTupleSets(schema1, nil, opened[:e1])
	if err != nil {
		return nil, 0, err
	}
	r2, err := relation.DecodeTupleSets(schema2, nil, opened[e1:])
	if err != nil {
		return nil, 0, err
	}
	// Every shipped row is in at least one of the Size pairs, and no
	// more than n1·n2 pairs exist ((Size-1)/n1 >= n2 is Size > n1·n2
	// without the overflow).
	n1, n2 := r1.Len(), r2.Len()
	if res.Size < n1 || res.Size < n2 || (n1 == 0 && res.Size != 0) || (n1 > 0 && (res.Size-1)/n1 >= n2) {
		return nil, 0, fmt.Errorf("%w: it claims %d pairs over tables of %d and %d rows", ErrInconsistentResult, res.Size, n1, n2)
	}
	out, err := algebra.EquiJoin(r1, r2, joinCols1, joinCols2)
	if err != nil {
		return nil, 0, err
	}
	if out.Len() > res.Size {
		return nil, 0, fmt.Errorf("%w: it claims %d pairs, but %d tuple pairs join", ErrInconsistentResult, res.Size, out.Len())
	}
	return out, res.Size - out.Len(), nil
}

// ErrInconsistentResult marks a server result whose runs and Size no
// honest relay of sealed runs produces: a sealed run opens or fails on
// its own, but which runs arrive, and how often, is the server's choice.
var ErrInconsistentResult = errors.New("das: inconsistent server result")

// distinct rejects a table that holds some run twice: a mediator cannot
// forge a run, but replaying one would inflate the client's join. It
// sorts the slots by their bytes rather than keying a set on copies of
// them, and names the first slot whose run an earlier slot holds.
func distinct(runs [][]byte, side string) error {
	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := bytes.Compare(runs[a], runs[b]); c != 0 {
			return c
		}
		return a - b
	})
	repeat := -1
	for k := 1; k < len(order); k++ {
		if bytes.Equal(runs[order[k-1]], runs[order[k]]) && (repeat < 0 || order[k] < repeat) {
			repeat = order[k]
		}
	}
	if repeat >= 0 {
		return fmt.Errorf("%w: it repeats a run of %s at slot %d", ErrInconsistentResult, side, repeat)
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

// openRun opens one run and returns its tuple set; an honest source
// never seals an empty one.
// seclint:source decrypted DAS run
func openRun(r Opener, blob, aad []byte, schema relation.Schema) ([]byte, error) {
	ct, err := hybrid.UnmarshalCiphertext(blob)
	if err != nil {
		return nil, err
	}
	pt, err := r.Open(ct, aad)
	if err != nil {
		return nil, err
	}
	rows, err := relation.TupleSetRows(schema, nil, pt)
	if err != nil {
		return nil, err
	}
	if rows == 0 {
		return nil, fmt.Errorf("das: a run of %s holds no rows", schema.Relation)
	}
	return pt, nil
}
