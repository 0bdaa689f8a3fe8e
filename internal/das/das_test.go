package das

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/transport"
)

func intDomain(vals ...int64) []rel.Value {
	out := make([]rel.Value, len(vals))
	for i, v := range vals {
		out[i] = rel.Int(v)
	}
	return out
}

func TestEquiDepthPartitioning(t *testing.T) {
	dom := intDomain(1, 2, 3, 100, 200, 300, 301)
	parts, err := EquiDepthPartitions(dom, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want 3", len(parts))
	}
	// 7 values into 3 partitions: 3+2+2.
	if parts[0].Lo.AsInt() != 1 || parts[0].Hi.AsInt() != 3 {
		t.Errorf("first partition %v..%v, want 1..3", parts[0].Lo, parts[0].Hi)
	}
	// Every domain value must be covered by exactly one partition, and
	// the partitions span the domain.
	for _, v := range dom {
		n := 0
		for _, p := range parts {
			if p.Contains(v) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("value %v covered by %d partitions", v, n)
		}
	}
	if parts[2].Hi.AsInt() != 301 {
		t.Errorf("last partition ends at %v, want 301", parts[2].Hi)
	}
	// Works for strings too.
	sdom := []rel.Value{rel.String_("a"), rel.String_("b"), rel.String_("z")}
	sparts, err := EquiDepthPartitions(sdom, 2)
	if err != nil || len(sparts) != 2 {
		t.Errorf("string equi-depth: %v, %v", sparts, err)
	}
}

func TestPartitionDomainValidation(t *testing.T) {
	if _, err := EquiDepthPartitions(nil, 2); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := EquiDepthPartitions(intDomain(1), 0); err == nil {
		t.Error("k=0 accepted")
	}
	// The deprecated PartitionDomain is equi-depth at strategy zero and
	// refuses every other value, including the two deleted strategies.
	dom := intDomain(1, 2, 3, 100)
	want, _ := EquiDepthPartitions(dom, 3)
	if got, err := PartitionDomain(dom, 3, 0); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("PartitionDomain(strategy 0) = %v, %v; want %v", got, err, want)
	}
	for _, s := range []Strategy{1, 2, 99} {
		if _, err := PartitionDomain(dom, 3, s); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
			t.Errorf("strategy %d: err = %v", s, err)
		}
	}
}

func TestMorePartitionsThanValues(t *testing.T) {
	parts, err := EquiDepthPartitions(intDomain(4, 7), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Errorf("%d partitions for 2 values", len(parts))
	}
}

func TestIntervalOverlap(t *testing.T) {
	iv := func(lo, hi int64) Partition {
		return Partition{Lo: rel.Int(lo), Hi: rel.Int(hi)}
	}
	cases := []struct {
		a, b Partition
		want bool
	}{
		{iv(1, 5), iv(5, 9), true},
		{iv(1, 5), iv(6, 9), false},
		{iv(1, 10), iv(3, 4), true},
		{iv(3, 4), iv(1, 10), true},
		{iv(1, 2), Partition{Lo: rel.String_("a"), Hi: rel.String_("b")}, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%v..%v, %v..%v) = %v, want %v", c.a.Lo, c.a.Hi, c.b.Lo, c.b.Hi, got, c.want)
		}
	}
}

func TestIndexTable(t *testing.T) {
	dom := intDomain(1, 2, 3, 4, 5, 6, 7, 8)
	parts, _ := EquiDepthPartitions(dom, 3)
	it, err := BuildIndexTable("id", parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Entries) != len(parts) {
		t.Fatalf("entries = %d, want %d", len(it.Entries), len(parts))
	}
	seen := map[IndexValue]bool{}
	for _, e := range it.Entries {
		if seen[e.Index] {
			t.Error("duplicate index value")
		}
		seen[e.Index] = true
	}
	iv, err := it.IndexOf(rel.Int(4))
	if err != nil {
		t.Fatal(err)
	}
	if !seen[iv] {
		t.Error("IndexOf returned unknown index")
	}
	if _, err := it.IndexOf(rel.Int(99)); err == nil {
		t.Error("uncovered value indexed")
	}
}

func TestOverlapPairsSymmetry(t *testing.T) {
	d1 := intDomain(1, 2, 3, 10, 11, 12)
	d2 := intDomain(2, 3, 4, 11, 40)
	p1, _ := EquiDepthPartitions(d1, 3)
	p2, _ := EquiDepthPartitions(d2, 2)
	it1, _ := BuildIndexTable("a", p1)
	it2, _ := BuildIndexTable("a", p2)
	fwd := OverlapPairs(it1, it2)
	rev := OverlapPairs(it2, it1)
	if len(fwd) != len(rev) {
		t.Errorf("overlap pairs asymmetric: %d vs %d", len(fwd), len(rev))
	}
	if len(fwd) == 0 {
		t.Error("no overlapping partitions for overlapping domains")
	}
}

var (
	keyOnce sync.Once
	ck      *ecdh.PrivateKey
)

// clientKey is the test client's query key.
func clientKey(t testing.TB) *ecdh.PrivateKey {
	t.Helper()
	keyOnce.Do(func() {
		var err error
		ck, err = ecdh.P256().GenerateKey(rand.Reader)
		if err != nil {
			panic(err)
		}
	})
	return ck
}

// encryptFor is SealRelation under a fresh session to the query key.
func encryptFor(key *ecdh.PrivateKey, r *rel.Relation, cols []string, its []*IndexTable) (*EncryptedRelation, *hybrid.Session, error) {
	sess, err := hybrid.NewSessionECDH(key.PublicKey())
	if err != nil {
		return nil, nil, err
	}
	er, err := SealRelation(r, cols, its, sess, 1)
	return er, sess, err
}

func fixtures(t testing.TB) (*rel.Relation, *rel.Relation) {
	t.Helper()
	s1 := rel.MustSchema("R1",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "name", Kind: rel.KindString})
	s2 := rel.MustSchema("R2",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "city", Kind: rel.KindString})
	r1 := rel.MustFromTuples(s1,
		rel.Tuple{rel.Int(1), rel.String_("a")},
		rel.Tuple{rel.Int(2), rel.String_("b")},
		rel.Tuple{rel.Int(5), rel.String_("e")},
		rel.Tuple{rel.Int(5), rel.String_("e2")},
		rel.Tuple{rel.Int(9), rel.String_("i")},
	)
	r2 := rel.MustFromTuples(s2,
		rel.Tuple{rel.Int(2), rel.String_("x")},
		rel.Tuple{rel.Int(5), rel.String_("y")},
		rel.Tuple{rel.Int(7), rel.String_("z")},
	)
	return r1, r2
}

// End-to-end DAS mechanics: encrypt both relations, build the server query
// from the index tables, run it, decrypt + post-filter, and compare with a
// plaintext join.
func TestDASEndToEnd(t *testing.T) {
	key := clientKey(t)
	r1, r2 := fixtures(t)
	for _, k := range []int{1, 2, 3, 100} {
		d1, _ := r1.ActiveDomain("id")
		d2, _ := r2.ActiveDomain("id")
		p1, err := EquiDepthPartitions(d1, k)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := EquiDepthPartitions(d2, k)
		if err != nil {
			t.Fatal(err)
		}
		it1, _ := BuildIndexTable("id", p1)
		it2, _ := BuildIndexTable("id", p2)
		er1, _, err := encryptFor(key, r1, []string{"id"}, []*IndexTable{it1})
		if err != nil {
			t.Fatal(err)
		}
		er2, _, err := encryptFor(key, r2, []string{"id"}, []*IndexTable{it2})
		if err != nil {
			t.Fatal(err)
		}
		sq, err := BuildServerQuery([]*IndexTable{it1}, []*IndexTable{it2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExecuteServerQuery(er1, er2, sq)
		if err != nil {
			t.Fatal(err)
		}

		recv1, err := hybrid.NewReceiverECDH(key, er1.KeyShare)
		if err != nil {
			t.Fatal(err)
		}
		recv2, err := hybrid.NewReceiverECDH(key, er2.KeyShare)
		if err != nil {
			t.Fatal(err)
		}
		got, discarded, err := DecryptServerResult(res, recv1, recv2, r1.Schema(), r2.Schema(), []string{"id"}, []string{"id"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Expected join: ids 2 (1×1) and 5 (2×1) → 3 tuples.
		if got.Len() != 3 {
			t.Errorf("k=%d: join size = %d, want 3", k, got.Len())
		}
		// Superset property: server result ≥ exact result.
		if res.Size != len(res.Pairs) {
			t.Errorf("k=%d: Size = %d, %d pairs", k, res.Size, len(res.Pairs))
		}
		if res.Size < got.Len() {
			t.Errorf("k=%d: server result smaller than join", k)
		}
		if res.Size != got.Len()+discarded {
			t.Errorf("k=%d: pair accounting broken: %d != %d+%d", k, res.Size, got.Len(), discarded)
		}
	}
}

// Coarser partitioning must never shrink the server result (the paper's
// granularity trade-off): k=1 yields the full cross product of index
// matches.
func TestPartitionGranularityMonotonicity(t *testing.T) {
	key := clientKey(t)
	r1, r2 := fixtures(t)
	d1, _ := r1.ActiveDomain("id")
	d2, _ := r2.ActiveDomain("id")
	sizes := map[int]int{}
	for _, k := range []int{1, 2, 4, 64} {
		p1, _ := EquiDepthPartitions(d1, k)
		p2, _ := EquiDepthPartitions(d2, k)
		it1, _ := BuildIndexTable("id", p1)
		it2, _ := BuildIndexTable("id", p2)
		er1, _, _ := encryptFor(key, r1, []string{"id"}, []*IndexTable{it1})
		er2, _, _ := encryptFor(key, r2, []string{"id"}, []*IndexTable{it2})
		sq, _ := BuildServerQuery([]*IndexTable{it1}, []*IndexTable{it2})
		res, err := ExecuteServerQuery(er1, er2, sq)
		if err != nil {
			t.Fatal(err)
		}
		sizes[k] = res.Size
	}
	if sizes[1] != r1.Len()*r2.Len() {
		t.Errorf("k=1 server result = %d, want full product %d", sizes[1], r1.Len()*r2.Len())
	}
	if sizes[64] > sizes[4] || sizes[4] > sizes[1] {
		t.Errorf("superset size not monotone in granularity: %v", sizes)
	}
}

func TestEncryptRelationErrors(t *testing.T) {
	key := clientKey(t)
	r1, _ := fixtures(t)
	d1, _ := r1.ActiveDomain("id")
	p1, _ := EquiDepthPartitions(d1, 2)
	it1, _ := BuildIndexTable("id", p1)
	if _, _, err := encryptFor(key, r1, []string{"ghost"}, []*IndexTable{it1}); err == nil {
		t.Error("bad join column accepted")
	}
	if _, _, err := encryptFor(key, r1, []string{"id"}, nil); err == nil {
		t.Error("missing index tables accepted")
	}
	// Index table missing coverage.
	itBad := &IndexTable{Attribute: "id"}
	if _, _, err := encryptFor(key, r1, []string{"id"}, []*IndexTable{itBad}); err == nil {
		t.Error("uncovering index table accepted")
	}
	// The bench-only RSA wrapper validates the same way and otherwise
	// seals under a session whose key it wraps.
	rk, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EncryptRelation(r1, []string{"ghost"}, []*IndexTable{it1}, &rk.PublicKey, 1); err == nil {
		t.Error("EncryptRelation: bad join column accepted")
	}
	er, sess, err := EncryptRelation(r1, []string{"id"}, []*IndexTable{it1}, &rk.PublicKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := hybrid.NewReceiver(rk, sess.WrappedKey())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openRows(recv, er.Runs[0].Sealed, runAAD(r1.Schema()), r1.Schema()); err != nil {
		t.Errorf("EncryptRelation run does not open: %v", err)
	}
}

// Property: for random int domains, OverlapPairs includes every pair of
// partitions that actually share an active value.
func TestOverlapPairsComplete(t *testing.T) {
	f := func(seedVals []uint8, k1, k2 uint8) bool {
		if len(seedVals) == 0 {
			return true
		}
		uniq := map[int64]bool{}
		for _, v := range seedVals {
			uniq[int64(v%64)] = true
		}
		var dom []rel.Value
		for v := range uniq {
			dom = append(dom, rel.Int(v))
		}
		// sort
		for i := range dom {
			for j := i + 1; j < len(dom); j++ {
				if dom[j].Compare(dom[i]) < 0 {
					dom[i], dom[j] = dom[j], dom[i]
				}
			}
		}
		p1, err := EquiDepthPartitions(dom, int(k1%5)+1)
		if err != nil {
			return false
		}
		p2, err := EquiDepthPartitions(dom, int(k2%5)+1)
		if err != nil {
			return false
		}
		it1, _ := BuildIndexTable("a", p1)
		it2, _ := BuildIndexTable("a", p2)
		pairs := OverlapPairs(it1, it2)
		inPairs := map[IndexPair]bool{}
		for _, p := range pairs {
			inPairs[p] = true
		}
		// Every shared value's partition pair must be admissible.
		for _, v := range dom {
			i1, err1 := it1.IndexOf(v)
			i2, err2 := it2.IndexOf(v)
			if err1 != nil || err2 != nil {
				return false
			}
			if !inPairs[IndexPair{I1: i1, I2: i2}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Multi-attribute DAS (paper §8 future work): one index table per join
// attribute, CondS a conjunction of per-attribute disjunctions.
func TestDASMultiAttribute(t *testing.T) {
	key := clientKey(t)
	s1 := rel.MustSchema("R1",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "dept", Kind: rel.KindString},
		rel.Column{Name: "name", Kind: rel.KindString})
	s2 := rel.MustSchema("R2",
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "dept", Kind: rel.KindString},
		rel.Column{Name: "city", Kind: rel.KindString})
	r1 := rel.MustFromTuples(s1,
		rel.Tuple{rel.Int(1), rel.String_("a"), rel.String_("n1")},
		rel.Tuple{rel.Int(1), rel.String_("b"), rel.String_("n2")},
		rel.Tuple{rel.Int(2), rel.String_("a"), rel.String_("n3")},
	)
	r2 := rel.MustFromTuples(s2,
		rel.Tuple{rel.Int(1), rel.String_("a"), rel.String_("c1")},
		rel.Tuple{rel.Int(1), rel.String_("c"), rel.String_("c2")},
		rel.Tuple{rel.Int(2), rel.String_("b"), rel.String_("c3")},
	)
	buildITs := func(r *rel.Relation) []*IndexTable {
		d1, _ := r.ActiveDomain("id")
		d2, _ := r.ActiveDomain("dept")
		p1, err := EquiDepthPartitions(d1, 2)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := EquiDepthPartitions(d2, 2)
		if err != nil {
			t.Fatal(err)
		}
		it1, _ := BuildIndexTable("id", p1)
		it2, _ := BuildIndexTable("dept", p2)
		return []*IndexTable{it1, it2}
	}
	its1 := buildITs(r1)
	its2 := buildITs(r2)
	cols := []string{"id", "dept"}
	er1, _, err := encryptFor(ck, r1, cols, its1)
	if err != nil {
		t.Fatal(err)
	}
	er2, _, err := encryptFor(ck, r2, cols, its2)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := BuildServerQuery(its1, its2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteServerQuery(er1, er2, sq)
	if err != nil {
		t.Fatal(err)
	}
	recv1, _ := hybrid.NewReceiverECDH(key, er1.KeyShare)
	recv2, _ := hybrid.NewReceiverECDH(key, er2.KeyShare)
	got, _, err := DecryptServerResult(res, recv1, recv2, s1, s2, cols, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only (1, "a") matches on both attributes.
	if got.Len() != 1 {
		t.Errorf("multi-attr join size = %d, want 1\n%v", got.Len(), got)
	}
}

func TestExecuteServerQueryValidation(t *testing.T) {
	if _, err := ExecuteServerQuery(&EncryptedRelation{}, &EncryptedRelation{}, ServerQuery{}); err == nil {
		t.Error("empty server query accepted")
	}
	// Runs with fewer index entries than query attributes are invalid
	// (extra entries are fine: they carry pushed-down filter columns).
	q2 := ServerQuery{PerAttr: [][]IndexPair{{{I1: 1, I2: 1}}, {{I1: 2, I2: 2}}}}
	short := &EncryptedRelation{Runs: []Run{{Index: []IndexValue{1}, Rows: 1}}}
	if _, err := ExecuteServerQuery(short, &EncryptedRelation{}, q2); err == nil {
		t.Error("short index vector accepted (R1)")
	}
	ok1 := &EncryptedRelation{Runs: []Run{{Index: []IndexValue{1, 2}, Rows: 1}}}
	if _, err := ExecuteServerQuery(ok1, short, q2); err == nil {
		t.Error("short index vector accepted (R2)")
	}
	// Negative filter attribute is rejected.
	q3 := ServerQuery{PerAttr: [][]IndexPair{{{I1: 1, I2: 1}}}, Filters1: []IndexFilter{{Attr: -1}}}
	if _, err := ExecuteServerQuery(ok1, ok1, q3); err == nil {
		t.Error("negative filter attr accepted")
	}
}

func TestBuildServerQueryValidation(t *testing.T) {
	if _, err := BuildServerQuery(nil, nil); err == nil {
		t.Error("empty table lists accepted")
	}
	if _, err := BuildServerQuery([]*IndexTable{{}}, nil); err == nil {
		t.Error("mismatched table lists accepted")
	}
}

func TestMaySatisfyIntervals(t *testing.T) {
	iv := Partition{Lo: rel.Int(10), Hi: rel.Int(20)}
	cases := []struct {
		op    algebra.CompareOp
		bound int64
		want  bool
	}{
		{algebra.OpEq, 15, true}, {algebra.OpEq, 9, false}, {algebra.OpEq, 21, false},
		{algebra.OpEq, 10, true}, {algebra.OpEq, 20, true},
		{algebra.OpLt, 10, false}, {algebra.OpLt, 11, true},
		{algebra.OpLe, 9, false}, {algebra.OpLe, 10, true},
		{algebra.OpGt, 20, false}, {algebra.OpGt, 19, true},
		{algebra.OpGe, 21, false}, {algebra.OpGe, 20, true},
		{algebra.OpNe, 15, true},
	}
	for _, c := range cases {
		if got := iv.MaySatisfy(c.op, rel.Int(c.bound)); got != c.want {
			t.Errorf("[10,20] MaySatisfy(%v, %d) = %v, want %v", c.op, c.bound, got, c.want)
		}
	}
	// Degenerate interval [c,c] with != c is unsatisfiable.
	single := Partition{Lo: rel.Int(5), Hi: rel.Int(5)}
	if single.MaySatisfy(algebra.OpNe, rel.Int(5)) {
		t.Error("[5,5] may satisfy != 5")
	}
	// Kind mismatch is unsatisfiable.
	if iv.MaySatisfy(algebra.OpEq, rel.String_("x")) {
		t.Error("kind-mismatched bound satisfiable")
	}
}

func TestAllowedIndexes(t *testing.T) {
	dom := intDomain(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	parts, _ := EquiDepthPartitions(dom, 5) // [1,2][3,4][5,6][7,8][9,10]
	it, _ := BuildIndexTable("x", parts)
	allowed := it.AllowedIndexes(algebra.OpLe, rel.Int(4))
	if len(allowed) != 2 {
		t.Errorf("AllowedIndexes(<=4) = %d partitions, want 2", len(allowed))
	}
	all := it.AllowedIndexes(algebra.OpNe, rel.Int(3))
	if len(all) != 5 {
		t.Errorf("AllowedIndexes(!=3) = %d, want 5", len(all))
	}
}

// Server-side filters must never lose true results (soundness of the
// over-approximation).
func TestServerQueryFilterSoundness(t *testing.T) {
	key := clientKey(t)
	r1, r2 := fixtures(t)
	d1, _ := r1.ActiveDomain("id")
	d2, _ := r2.ActiveDomain("id")
	p1, _ := EquiDepthPartitions(d1, 3)
	p2, _ := EquiDepthPartitions(d2, 3)
	it1, _ := BuildIndexTable("id", p1)
	it2, _ := BuildIndexTable("id", p2)
	er1, _, _ := encryptFor(key, r1, []string{"id"}, []*IndexTable{it1})
	er2, _, _ := encryptFor(key, r2, []string{"id"}, []*IndexTable{it2})
	sq, _ := BuildServerQuery([]*IndexTable{it1}, []*IndexTable{it2})
	// Push down "R1.id >= 5": ids 5,5,9 remain on the left.
	sq.Filters1 = []IndexFilter{{Attr: 0, Allowed: it1.AllowedIndexes(algebra.OpGe, rel.Int(5))}}
	res, err := ExecuteServerQuery(er1, er2, sq)
	if err != nil {
		t.Fatal(err)
	}
	recv1, _ := hybrid.NewReceiverECDH(key, er1.KeyShare)
	recv2, _ := hybrid.NewReceiverECDH(key, er2.KeyShare)
	got, _, err := DecryptServerResult(res, recv1, recv2, r1.Schema(), r2.Schema(), []string{"id"}, []string{"id"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// True answer for id>=5: the two id=5 tuples joining id=5 on the right.
	count := 0
	for _, tup := range got.Tuples() {
		i := got.Schema().IndexOf("R1.id")
		if tup[i].AsInt() >= 5 {
			count++
		}
	}
	if count != 2 {
		t.Errorf("filtered join kept %d id>=5 tuples, want 2\n%v", count, got)
	}
}

// oraclePair, oracleExecute and oracleDecrypt are the reference the
// reduced ServerResult is checked against: σ_CondS row pair by row pair,
// with both runs inline in every pair and the pair's row within each,
// and a decrypt that opens both sides of every pair and compares their
// join values by canonical encoding.
type oraclePair struct {
	E1, E2 []byte
	I, J   int
}

func oracleExecute(r1, r2 *EncryptedRelation, q ServerQuery) ([]oraclePair, error) {
	adm := make([]map[IndexValue]map[IndexValue]bool, len(q.PerAttr))
	for a, pairs := range q.PerAttr {
		adm[a] = make(map[IndexValue]map[IndexValue]bool, len(pairs))
		for _, p := range pairs {
			m, ok := adm[a][p.I1]
			if !ok {
				m = make(map[IndexValue]bool)
				adm[a][p.I1] = m
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
	var out []oraclePair
	for _, run1 := range r1.Runs {
		for _, run2 := range r2.Runs {
			match := filter1.admits(run1.Index) && filter2.admits(run2.Index)
			for a := range q.PerAttr {
				match = match && adm[a][run1.Index[a]][run2.Index[a]]
			}
			if !match {
				continue
			}
			for i := 0; i < run1.Rows; i++ {
				for j := 0; j < run2.Rows; j++ {
					out = append(out, oraclePair{E1: run1.Sealed, E2: run2.Sealed, I: i, J: j})
				}
			}
		}
	}
	return out, nil
}

func oracleDecrypt(pairs []oraclePair, recv1, recv2 Opener, s1, s2 rel.Schema, cols []string) (*rel.Relation, int, error) {
	joined, err := s1.Concat(s2)
	if err != nil {
		return nil, 0, err
	}
	aad1, aad2 := runAAD(s1), runAAD(s2)
	out := rel.New(joined)
	discarded := 0
	for _, p := range pairs {
		run1, err := openRows(recv1, p.E1, aad1, s1)
		if err != nil {
			return nil, 0, err
		}
		run2, err := openRows(recv2, p.E2, aad2, s2)
		if err != nil {
			return nil, 0, err
		}
		t1, t2 := run1[p.I], run2[p.J]
		match := true
		for _, c := range cols {
			if string(t1[s1.IndexOf(c)].Encode(nil)) != string(t2[s2.IndexOf(c)].Encode(nil)) {
				match = false
			}
		}
		if !match {
			discarded++
			continue
		}
		out.MustAppend(append(t1.Clone(), t2...))
	}
	return out, discarded, nil
}

// skewedRelation draws n rows whose join keys repeat and pile up on the
// small values: id ∈ [0, 12) exponentially distributed, dept ∈ {a, b, c}.
func skewedRelation(rng *mrand.Rand, name string, n int) *rel.Relation {
	r := rel.New(rel.MustSchema(name,
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "dept", Kind: rel.KindString},
		rel.Column{Name: "payload", Kind: rel.KindString}))
	for i := 0; i < n; i++ {
		r.MustAppend(rel.Tuple{
			rel.Int(int64(rng.ExpFloat64()*3) % 12),
			rel.String_(string(rune('a' + rng.Intn(3)))),
			rel.String_(fmt.Sprintf("%s-%d", name, i)),
		})
	}
	return r
}

// dasSide is one source's share of a DAS run on plaintext r.
type dasSide struct {
	r    *rel.Relation
	its  []*IndexTable
	er   *EncryptedRelation
	recv *countingOpener
}

func newDASSide(t testing.TB, r *rel.Relation, cols []string, k int) dasSide {
	t.Helper()
	key := clientKey(t)
	its := make([]*IndexTable, len(cols))
	for i, c := range cols {
		dom, err := r.ActiveDomain(c)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := EquiDepthPartitions(dom, k)
		if err != nil {
			t.Fatal(err)
		}
		if its[i], err = BuildIndexTable(c, parts); err != nil {
			t.Fatal(err)
		}
	}
	er, _, err := encryptFor(key, r, cols, its)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := hybrid.NewReceiverECDH(key, er.KeyShare)
	if err != nil {
		t.Fatal(err)
	}
	return dasSide{r: r, its: its, er: er, recv: &countingOpener{Opener: recv, opens: map[string]int{}}}
}

// countingOpener counts Open calls per ciphertext.
type countingOpener struct {
	Opener
	mu    sync.Mutex
	opens map[string]int
}

func (c *countingOpener) Open(ct *hybrid.Ciphertext, aad []byte) ([]byte, error) {
	c.mu.Lock()
	c.opens[string(ct.Sealed)]++
	c.mu.Unlock()
	return c.Opener.Open(ct, aad)
}

// total returns the number of Open calls and whether any ciphertext was
// opened more than once.
func (c *countingOpener) total() (n int, repeated bool) {
	for _, k := range c.opens {
		n += k
		repeated = repeated || k > 1
	}
	return n, repeated
}

// The factored result must be exactly the reference's R_C and exactly the
// plaintext join, across partitioning strategies, granularities, one- and
// two-attribute joins and pushed-down filters; its Pairs must name R_C's
// row pairs by their ordinals among the shipped rows; and it must reach
// them by opening every shipped run exactly once.
func TestServerResultMatchesOracle(t *testing.T) {
	rng := mrand.New(mrand.NewSource(22))
	for _, k := range []int{1, 2, 7, 16} {
		for _, cols := range [][]string{{"id"}, {"id", "dept"}} {
			for _, filtered := range []bool{false, true} {
				name := fmt.Sprintf("k=%d/%d-attr/filtered=%v", k, len(cols), filtered)
				s1 := newDASSide(t, skewedRelation(rng, "R1", 30), cols, k)
				s2 := newDASSide(t, skewedRelation(rng, "R2", 40), cols, k)
				sq, err := BuildServerQuery(s1.its, s2.its)
				if err != nil {
					t.Fatal(err)
				}
				// The filtered runs push down R1.id >= 1 and R2.id <= 4.
				keep1 := func(rel.Tuple) bool { return true }
				keep2 := keep1
				if filtered {
					sq.Filters1 = []IndexFilter{{Attr: 0, Allowed: s1.its[0].AllowedIndexes(algebra.OpGe, rel.Int(1))}}
					sq.Filters2 = []IndexFilter{{Attr: 0, Allowed: s2.its[0].AllowedIndexes(algebra.OpLe, rel.Int(4))}}
					keep1 = func(tu rel.Tuple) bool { return tu[0].AsInt() >= 1 }
					keep2 = func(tu rel.Tuple) bool { return tu[0].AsInt() <= 4 }
				}
				res, err := ExecuteServerQuery(s1.er, s2.er, sq)
				if err != nil {
					t.Fatal(err)
				}
				got, discarded, err := DecryptServerResult(res, s1.recv, s2.recv, s1.r.Schema(), s2.r.Schema(), cols, cols, 2)
				if err != nil {
					t.Fatal(err)
				}
				opens1, rep1 := s1.recv.total()
				opens2, rep2 := s2.recv.total()
				if rep1 || rep2 {
					t.Errorf("%s: a run was opened more than once", name)
				}
				if opens1 != len(res.E1) || opens2 != len(res.E2) {
					t.Errorf("%s: opens = %d+%d, tables hold %d+%d", name, opens1, opens2, len(res.E1), len(res.E2))
				}
				if len(res.E1) > len(s1.er.Runs) || len(res.E2) > len(s2.er.Runs) {
					t.Errorf("%s: tables hold %d+%d runs of %d+%d", name, len(res.E1), len(res.E2), len(s1.er.Runs), len(s2.er.Runs))
				}

				pairs, err := oracleExecute(s1.er, s2.er, sq)
				if err != nil {
					t.Fatal(err)
				}
				want, wantDiscarded, err := oracleDecrypt(pairs, s1.recv, s2.recv, s1.r.Schema(), s2.r.Schema(), cols)
				if err != nil {
					t.Fatal(err)
				}
				if res.Size != len(pairs) || len(res.Pairs) != len(pairs) {
					t.Errorf("%s: |R_C| = %d (%d pairs), oracle %d", name, res.Size, len(res.Pairs), len(pairs))
				}
				if discarded != wantDiscarded {
					t.Errorf("%s: discarded = %d, oracle %d", name, discarded, wantDiscarded)
				}
				if !got.EqualMultiset(want) {
					t.Errorf("%s: result differs from the oracle's", name)
				}
				if named, all := pairRows(t, res, s1, s2), oracleRows(t, pairs, s1, s2); !named.EqualMultiset(all) {
					t.Errorf("%s: Pairs name other row pairs than the oracle's R_C", name)
				}
				// The filters over-approximate, so compare with the
				// plaintext join after applying them exactly.
				plain, err := algebra.EquiJoin(s1.r.Filter(keep1), s2.r.Filter(keep2), cols, cols)
				if err != nil {
					t.Fatal(err)
				}
				n1 := s1.r.Schema().Arity()
				exact := got.Filter(func(tu rel.Tuple) bool { return keep1(tu[:n1]) && keep2(tu[n1:]) })
				if !exact.EqualMultiset(plain) {
					t.Errorf("%s: result differs from algebra.EquiJoin:\n%v\nwant\n%v", name, exact, plain)
				}
			}
		}
	}
}

// pairRows opens the shipped runs and returns the row pairs res.Pairs
// names, concatenated.
func pairRows(t *testing.T, res *ServerResult, s1, s2 dasSide) *rel.Relation {
	t.Helper()
	rows := func(runs [][]byte, side dasSide) []rel.Tuple {
		var out []rel.Tuple
		for _, run := range runs {
			tuples, err := openRows(side.recv.Opener, run, runAAD(side.r.Schema()), side.r.Schema())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tuples...)
		}
		return out
	}
	rows1, rows2 := rows(res.E1, s1), rows(res.E2, s2)
	out := concatRelation(t, s1, s2)
	for _, p := range res.Pairs {
		out.MustAppend(append(rows1[p.I].Clone(), rows2[p.J]...))
	}
	return out
}

// oracleRows returns every row pair of the oracle's R_C, concatenated.
func oracleRows(t *testing.T, pairs []oraclePair, s1, s2 dasSide) *rel.Relation {
	t.Helper()
	out := concatRelation(t, s1, s2)
	for _, p := range pairs {
		run1, err := openRows(s1.recv.Opener, p.E1, runAAD(s1.r.Schema()), s1.r.Schema())
		if err != nil {
			t.Fatal(err)
		}
		run2, err := openRows(s2.recv.Opener, p.E2, runAAD(s2.r.Schema()), s2.r.Schema())
		if err != nil {
			t.Fatal(err)
		}
		out.MustAppend(append(run1[p.I].Clone(), run2[p.J]...))
	}
	return out
}

func concatRelation(t *testing.T, s1, s2 dasSide) *rel.Relation {
	t.Helper()
	joined, err := s1.r.Schema().Concat(s2.r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return rel.New(joined)
}

// R_C and the rows decrypted from it are a function of the inputs: the
// same on every evaluation, and the same for any worker count.
func TestServerResultDeterministic(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	cols := []string{"id", "dept"}
	s1 := newDASSide(t, skewedRelation(rng, "R1", 40), cols, 4)
	s2 := newDASSide(t, skewedRelation(rng, "R2", 40), cols, 4)
	sq, err := BuildServerQuery(s1.its, s2.its)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ExecuteServerQuery(s1.er, s2.er, sq)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Pairs) < 2 {
		t.Fatalf("fixture too small: %d pairs", len(first.Pairs))
	}
	for i := 1; i < 20; i++ {
		again, err := ExecuteServerQuery(s1.er, s2.er, sq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("evaluation %d produced a different ServerResult", i)
		}
	}
	decrypt := func(workers int) []rel.Tuple {
		got, _, err := DecryptServerResult(first, s1.recv, s2.recv, s1.r.Schema(), s2.r.Schema(), cols, cols, workers)
		if err != nil {
			t.Fatal(err)
		}
		return got.Tuples()
	}
	seq, par := decrypt(1), decrypt(4)
	if len(seq) == 0 || len(seq) != len(par) {
		t.Fatalf("workers 1 → %d rows, workers 4 → %d rows", len(seq), len(par))
	}
	for i := range seq {
		if !seq[i].Equal(par[i]) {
			t.Fatalf("row %d differs between workers 1 and 4: %v vs %v", i, seq[i], par[i])
		}
	}
}

// plainOpener stands in for a Receiver where the test hand-builds the
// runs: the "plaintext" is the sealed field itself.
type plainOpener struct{}

func (plainOpener) Open(ct *hybrid.Ciphertext, _ []byte) ([]byte, error) { return ct.Sealed, nil }

func plainRun(tuples ...rel.Tuple) []byte {
	set, err := rel.EncodeTupleSet(tuples, nil)
	if err != nil {
		panic(err)
	}
	return (&hybrid.Ciphertext{Nonce: make([]byte, 12), Sealed: set}).Marshal()
}

// A ServerResult comes from a peer: a table that repeats a run, a run
// without rows, or a Size that no set of pairs over the shipped rows
// could have, is an error, never a panic or an inflated join.
func TestDecryptServerResultRejectsInconsistentResults(t *testing.T) {
	r1, r2 := fixtures(t)
	e1 := [][]byte{plainRun(r1.Tuple(1)), plainRun(r1.Tuple(2))} // ids 2, 5
	e2 := [][]byte{plainRun(r2.Tuple(0)), plainRun(r2.Tuple(1))} // ids 2, 5
	// Two rows a side, all with id 5, in one run a side: four rows join.
	fives1 := [][]byte{plainRun(r1.Tuple(2), r1.Tuple(3))}
	fives2 := [][]byte{plainRun(r2.Tuple(1), rel.Tuple{rel.Int(5), rel.String_("w")})}
	// One run of ids 2 and 5 against two runs of one row: the range is
	// over rows, not runs.
	mixed1 := [][]byte{plainRun(r1.Tuple(1), r1.Tuple(2))}
	cases := []struct {
		name          string
		res           ServerResult
		wantRows      int
		wantDiscarded int
		wantErr       bool
	}{
		{"exact", ServerResult{E1: e1, E2: e2, Size: 2}, 2, 0, false},
		{"full product", ServerResult{E1: e1, E2: e2, Size: 4}, 2, 2, false},
		{"empty", ServerResult{}, 0, 0, false},
		{"Size below the join", ServerResult{E1: fives1, E2: fives2, Size: 3}, 0, 0, true},
		{"Size at the join", ServerResult{E1: fives1, E2: fives2, Size: 4}, 4, 0, false},
		{"Size below a table", ServerResult{E1: e1, E2: e2[:1], Size: 1}, 0, 0, true},
		{"Size below a run's rows", ServerResult{E1: mixed1, E2: e2[:1], Size: 1}, 0, 0, true},
		{"Size at a run's rows", ServerResult{E1: mixed1, E2: e2[:1], Size: 2}, 1, 1, false},
		{"Size above the product", ServerResult{E1: e1, E2: e2, Size: 5}, 0, 0, true},
		{"Size above the rows' product", ServerResult{E1: mixed1, E2: e2[:1], Size: 3}, 0, 0, true},
		{"Size at int max", ServerResult{E1: e1, E2: e2, Size: math.MaxInt}, 0, 0, true},
		{"negative Size", ServerResult{E1: e1, E2: e2, Size: -1}, 0, 0, true},
		{"Size but empty tables", ServerResult{Size: 1}, 0, 0, true},
		{"one table empty", ServerResult{E1: e1, Size: 2}, 0, 0, true},
		{"a run without rows", ServerResult{E1: [][]byte{plainRun()}, E2: e2[:1], Size: 1}, 0, 0, true},
		{"E1 repeats a run", ServerResult{E1: [][]byte{e1[1], e1[1]}, E2: e2, Size: 4}, 0, 0, true},
		{"E2 repeats a run", ServerResult{E1: e1, E2: [][]byte{e2[0], e2[0]}, Size: 4}, 0, 0, true},
	}
	for _, tc := range cases {
		got, discarded, err := DecryptServerResult(&tc.res, plainOpener{}, plainOpener{}, r1.Schema(), r2.Schema(), []string{"id"}, []string{"id"}, 2)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got.Len() != tc.wantRows || discarded != tc.wantDiscarded {
			t.Errorf("%s: %d rows, %d discarded; want %d, %d", tc.name, got.Len(), discarded, tc.wantRows, tc.wantDiscarded)
		}
	}
}

// Any bytes a peer sends as a das.result body must decrypt to a result or
// an error — no panic, an accepted result has distinct runs and
// rows ≤ Size ≤ |E1|·|E2|, and nothing allocates out of proportion to the
// input plus the rows joined.
func FuzzDecryptServerResult(f *testing.F) {
	r1, r2 := fixtures(f)
	valid := ServerResult{Size: 4,
		E1: [][]byte{plainRun(r1.Tuple(1)), plainRun(r1.Tuple(2), r1.Tuple(3))},
		E2: [][]byte{plainRun(r2.Tuple(0)), plainRun(r2.Tuple(1))}}
	badSize := valid
	badSize.Size = 7
	badRun := valid
	badRun.E2 = [][]byte{valid.E2[0], []byte("not a ciphertext")}
	for _, res := range []ServerResult{valid, badSize, badRun, {}} {
		b, err := transport.Encode(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var res ServerResult
		if transport.Decode(data, &res) != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, discarded, err := DecryptServerResult(&res, plainOpener{}, plainOpener{}, r1.Schema(), r2.Schema(), []string{"id"}, []string{"id"}, 2)
		runtime.ReadMemStats(&after)
		// A rejected result may have joined every shipped pair before its
		// Size was checked.
		n1, n2 := plainRows(res.E1, r1.Schema()), plainRows(res.E2, r2.Schema())
		rows := n1 * n2
		if err == nil {
			rows = got.Len()
			if rows+discarded != res.Size || discarded < 0 || res.Size > n1*n2 {
				t.Errorf("accepted %d rows + %d discarded as Size %d over %d×%d rows", rows, discarded, res.Size, n1, n2)
			}
			for _, tab := range [][][]byte{res.E1, res.E2} {
				seen := map[string]bool{}
				for _, e := range tab {
					if seen[string(e)] {
						t.Errorf("accepted a table that repeats a run")
					}
					seen[string(e)] = true
				}
			}
		}
		// Opening and keying a run costs a small multiple of its bytes,
		// and a joined row of four values a few hundred bytes: 1 KiB per
		// input byte and per row plus fixed slack bounds every honest cost.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*(len(data)+rows)); alloc > limit {
			t.Errorf("decrypting a %d-byte body into %d rows allocated %d bytes (limit %d)", len(data), rows, alloc, limit)
		}
	})
}

// plainRows counts the rows of the plainRun runs that parse.
func plainRows(runs [][]byte, schema rel.Schema) int {
	n := 0
	for _, run := range runs {
		if len(run) >= 12 {
			tuples, _ := rel.DecodeTupleSet(schema, nil, run[12:])
			n += len(tuples)
		}
	}
	return n
}

// DAS joins FLOAT keys as the plaintext reference does: by canonical
// encoding, so NaN meets NaN and 0 does not meet −0.
func TestDASFloatKeysMatchReference(t *testing.T) {
	floats := func(name string, vals ...float64) *rel.Relation {
		r := rel.New(rel.MustSchema(name,
			rel.Column{Name: "k", Kind: rel.KindFloat},
			rel.Column{Name: "tag", Kind: rel.KindString}))
		for i, v := range vals {
			r.MustAppend(rel.Tuple{rel.Float(v), rel.String_(fmt.Sprintf("%s-%d", name, i))})
		}
		return r
	}
	r1 := floats("R1", math.NaN(), 0, 1.5, 2)
	r2 := floats("R2", math.NaN(), math.Copysign(0, -1), 1.5, 3)
	cols := []string{"k"}
	want, err := algebra.EquiJoin(r1, r2, cols, cols)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 2 {
		t.Fatalf("reference join has %d rows, want (NaN, NaN) and (1.5, 1.5)", want.Len())
	}
	for _, k := range []int{1, 2, 4} {
		s1 := newDASSide(t, r1, cols, k)
		s2 := newDASSide(t, r2, cols, k)
		sq, err := BuildServerQuery(s1.its, s2.its)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExecuteServerQuery(s1.er, s2.er, sq)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DecryptServerResult(res, s1.recv, s2.recv, r1.Schema(), r2.Schema(), cols, cols, 2)
		if err != nil {
			t.Fatal(err)
		}
		// EqualMultiset compares with Value.Equal, under which NaN ≠ NaN.
		if got.Clone().Sort().String() != want.Clone().Sort().String() {
			t.Errorf("k=%d: got\n%v\nwant\n%v", k, got, want)
		}
	}
}

// R^S comes from a peer: its decoder accepts exactly the runs a source
// can seal — at least one row each, no more rows than sealed bytes, one
// index vector width of at least one, strictly ascending vectors — and
// the encoder refuses to write anything else.
func TestEncryptedRelationLayout(t *testing.T) {
	share := make([]byte, hybrid.PointSize)
	run := func(rows int, sealed string, index ...IndexValue) Run {
		return Run{Index: index, Rows: rows, Sealed: []byte(sealed)}
	}
	valid := EncryptedRelation{Name: "R1", KeyShare: share, Runs: []Run{run(1, "a", 1, 9), run(2, "bcd", 2, 0)}}
	b, err := valid.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back EncryptedRelation
	if err := back.UnmarshalBinary(b); err != nil || !reflect.DeepEqual(back, valid) {
		t.Fatalf("round trip: %v\n%+v\n%+v", err, back, valid)
	}
	// raw writes R^S field by field, valid or not.
	raw := func(width, count int, runs ...Run) []byte {
		out, err := codec.Marshal(layoutFunc(func(e *codec.Encoder) {
			e.Text("R1")
			e.Fixed(share, hybrid.PointSize)
			e.Len(width)
			e.Len(count)
			for _, r := range runs {
				for _, iv := range r.Index {
					e.Uint64(uint64(iv))
				}
				e.Len(r.Rows)
				e.Bytes(r.Sealed)
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := raw(2, 2, valid.Runs...); !bytes.Equal(got, b) {
		t.Fatalf("raw layout %x, encoder %x", got, b)
	}
	bad := map[string]struct {
		er  EncryptedRelation
		enc []byte
	}{
		"no rows":          {EncryptedRelation{Runs: []Run{run(0, "a", 1)}}, raw(1, 1, run(0, "a", 1))},
		"rows past sealed": {EncryptedRelation{Runs: []Run{run(2, "a", 1)}}, raw(1, 1, run(2, "a", 1))},
		"zero width":       {EncryptedRelation{Runs: []Run{run(1, "a")}}, raw(0, 1, run(1, "a"))},
		"width, no runs":   {EncryptedRelation{}, raw(1, 0)},
		"descending":       {EncryptedRelation{Runs: []Run{run(1, "a", 2), run(1, "b", 1)}}, raw(1, 2, run(1, "a", 2), run(1, "b", 1))},
		"repeated vector":  {EncryptedRelation{Runs: []Run{run(1, "a", 1, 5), run(1, "b", 1, 5)}}, raw(2, 2, run(1, "a", 1, 5), run(1, "b", 1, 5))},
		"ragged widths":    {EncryptedRelation{Runs: []Run{run(1, "a", 1), run(1, "b", 2, 3)}}, nil},
		"count past bytes": {EncryptedRelation{}, raw(1, 1000, run(1, "a", 1))},
		"trailing byte":    {EncryptedRelation{}, append(raw(2, 2, valid.Runs...), 0)},
	}
	for name, tc := range bad {
		if tc.er.Runs != nil {
			tc.er.Name, tc.er.KeyShare = "R1", share
			if _, err := tc.er.MarshalBinary(); err == nil {
				t.Errorf("%s: encoded", name)
			}
		}
		if tc.enc != nil {
			var er EncryptedRelation
			if err := er.UnmarshalBinary(tc.enc); err == nil {
				t.Errorf("%s: decoded", name)
			}
		}
	}
}

// layoutFunc is a hand-written layout.
type layoutFunc func(*codec.Encoder)

func (f layoutFunc) EncodeTo(e *codec.Encoder) { f(e) }

// An index table comes from a source the client does not trust to be
// well formed: its decoder refuses an interval whose bounds differ in
// kind or are out of order, which Overlaps and Contains would otherwise
// compare (a mixed-kind interval panicked BuildServerQuery).
func TestIndexTableRejectsMalformedInterval(t *testing.T) {
	// raw writes one table of one entry, valid or not.
	raw := func(lo, hi rel.Value) []byte {
		out, err := codec.Marshal(layoutFunc(func(e *codec.Encoder) {
			e.Len(1)
			e.Text("id")
			e.Len(1)
			lo.EncodeTo(e)
			hi.EncodeTo(e)
			e.Uint64(7)
		}))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	good := &IndexTable{Attribute: "id", Entries: []IndexEntry{{Partition: Partition{Lo: rel.Int(1), Hi: rel.Int(1)}, Index: 7}}}
	b, err := EncodeIndexTables([]*IndexTable{good})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, raw(rel.Int(1), rel.Int(1))) {
		t.Fatalf("raw layout differs from the encoder's")
	}
	if back, err := DecodeIndexTables(b); err != nil || !reflect.DeepEqual(back, []*IndexTable{good}) {
		t.Fatalf("round trip: %v, %+v", err, back)
	}
	bad := map[string]Partition{
		"mixed kinds": {Lo: rel.Int(1), Hi: rel.String_("z")},
		"lo above hi": {Lo: rel.Int(9), Hi: rel.Int(1)},
	}
	other := []*IndexTable{good}
	for name, p := range bad {
		its, err := DecodeIndexTables(raw(p.Lo, p.Hi))
		if err == nil {
			// What the client would do next with the tables.
			_, qerr := BuildServerQuery(other, its)
			t.Errorf("%s: decoded; BuildServerQuery then returns %v", name, qerr)
		}
		if _, err := EncodeIndexTables([]*IndexTable{{Attribute: "id", Entries: []IndexEntry{{Partition: p}}}}); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// openRows opens one run and decodes its rows.
func openRows(r Opener, blob, aad []byte, schema rel.Schema) ([]rel.Tuple, error) {
	set, err := openRun(r, blob, aad, schema)
	if err != nil {
		return nil, err
	}
	return rel.DecodeTupleSet(schema, nil, set)
}

// distinct names the first slot whose run an earlier slot already holds,
// however the repeats interleave.
func TestDistinctNamesFirstRepeat(t *testing.T) {
	x, y, z := []byte("run x"), []byte("run y"), []byte("run z")
	for _, tc := range []struct {
		runs [][]byte
		slot int // -1: no repeat
	}{
		{nil, -1},
		{[][]byte{x, y, z}, -1},
		{[][]byte{x, y, x}, 2},
		{[][]byte{z, y, y, z}, 2},
		{[][]byte{y, x, z, x, y}, 3},
		{[][]byte{x, x, x}, 1},
	} {
		err := distinct(tc.runs, "R1")
		want := ""
		if tc.slot >= 0 {
			want = fmt.Sprintf("at slot %d", tc.slot)
		}
		switch {
		case want == "" && err != nil:
			t.Errorf("%q: %v", tc.runs, err)
		case want != "" && (!errors.Is(err, ErrInconsistentResult) || !strings.Contains(err.Error(), want)):
			t.Errorf("%q: err = %v, want %s", tc.runs, err, want)
		}
	}
}
