package das

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"math"
	mrand "math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"github.com/secmediation/secmediation/internal/algebra"
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

func TestEquiWidthPartitioning(t *testing.T) {
	dom := intDomain(1, 5, 10, 15, 20)
	parts, err := PartitionDomain(dom, 4, EquiWidth)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("parts = %d, want 4", len(parts))
	}
	// Every domain value must be covered by exactly one partition.
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
	// Range coverage must be contiguous from 1 to 20.
	if parts[0].Lo.AsInt() != 1 || parts[3].Hi.AsInt() != 20 {
		t.Errorf("range bounds: %v..%v", parts[0].Lo, parts[3].Hi)
	}
	if _, err := PartitionDomain([]rel.Value{rel.String_("x")}, 2, EquiWidth); err == nil {
		t.Error("equi-width over TEXT accepted")
	}
}

func TestEquiDepthPartitioning(t *testing.T) {
	dom := intDomain(1, 2, 3, 100, 200, 300, 301)
	parts, err := PartitionDomain(dom, 3, EquiDepth)
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
	for _, v := range dom {
		found := false
		for _, p := range parts {
			if p.Contains(v) {
				found = true
			}
		}
		if !found {
			t.Errorf("value %v not covered", v)
		}
	}
	// Works for strings too.
	sdom := []rel.Value{rel.String_("a"), rel.String_("b"), rel.String_("z")}
	sparts, err := PartitionDomain(sdom, 2, EquiDepth)
	if err != nil || len(sparts) != 2 {
		t.Errorf("string equi-depth: %v, %v", sparts, err)
	}
}

func TestHashBucketPartitioning(t *testing.T) {
	dom := intDomain(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	parts, err := PartitionDomain(dom, 4, HashBuckets)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, v := range dom {
		for _, p := range parts {
			if p.Contains(v) {
				covered++
				break
			}
		}
	}
	if covered != len(dom) {
		t.Errorf("covered %d of %d values", covered, len(dom))
	}
	// Same bucket count on two sources must agree on assignment.
	other, _ := PartitionDomain(intDomain(5, 6, 99), 4, HashBuckets)
	for _, p := range parts {
		for _, q := range other {
			if p.Bucket == q.Bucket && !p.Overlaps(q) {
				t.Errorf("same-ordinal buckets do not overlap")
			}
			if p.Bucket != q.Bucket && p.Overlaps(q) {
				t.Errorf("different-ordinal buckets overlap")
			}
		}
	}
}

func TestPartitionDomainValidation(t *testing.T) {
	if _, err := PartitionDomain(nil, 2, EquiDepth); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := PartitionDomain(intDomain(1), 0, EquiDepth); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := PartitionDomain(intDomain(1), 1, Strategy(99)); err == nil {
		t.Error("unknown strategy accepted")
	}
	for s, want := range map[Strategy]string{EquiWidth: "equi-width", EquiDepth: "equi-depth", HashBuckets: "hash-buckets", Strategy(9): "unknown"} {
		if s.String() != want {
			t.Errorf("Strategy(%d).String() = %q", s, s.String())
		}
	}
}

func TestMorePartitionsThanValues(t *testing.T) {
	dom := intDomain(4, 7)
	for _, s := range []Strategy{EquiWidth, EquiDepth} {
		parts, err := PartitionDomain(dom, 10, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(parts) > 4 {
			t.Errorf("%v produced %d partitions for 2 values", s, len(parts))
		}
	}
}

func TestIntervalOverlap(t *testing.T) {
	iv := func(lo, hi int64) Partition {
		return Partition{IsInterval: true, Lo: rel.Int(lo), Hi: rel.Int(hi)}
	}
	cases := []struct {
		a, b Partition
		want bool
	}{
		{iv(1, 5), iv(5, 9), true},
		{iv(1, 5), iv(6, 9), false},
		{iv(1, 10), iv(3, 4), true},
		{iv(3, 4), iv(1, 10), true},
		{iv(1, 2), Partition{IsInterval: true, Lo: rel.String_("a"), Hi: rel.String_("b")}, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%v..%v, %v..%v) = %v, want %v", c.a.Lo, c.a.Hi, c.b.Lo, c.b.Hi, got, c.want)
		}
	}
	// Mixed interval/bucket.
	bucket := Partition{Members: intDomain(3, 30)}
	if !bucket.Overlaps(iv(1, 5)) || !iv(1, 5).Overlaps(bucket) {
		t.Error("bucket {3,30} should overlap [1,5]")
	}
	if bucket.Overlaps(iv(6, 9)) {
		t.Error("bucket {3,30} should not overlap [6,9]")
	}
	// Bucket-bucket with different counts falls back to member comparison.
	b1 := Partition{Members: intDomain(1, 2), BucketCount: 3, Bucket: 0}
	b2 := Partition{Members: intDomain(2, 9), BucketCount: 5, Bucket: 1}
	if !b1.Overlaps(b2) {
		t.Error("member-intersecting buckets should overlap")
	}
}

func TestIndexTable(t *testing.T) {
	dom := intDomain(1, 2, 3, 4, 5, 6, 7, 8)
	parts, _ := PartitionDomain(dom, 3, EquiDepth)
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
	p1, _ := PartitionDomain(d1, 3, EquiDepth)
	p2, _ := PartitionDomain(d2, 2, EquiDepth)
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
	for _, strategy := range []Strategy{EquiWidth, EquiDepth, HashBuckets} {
		for _, k := range []int{1, 2, 3, 100} {
			d1, _ := r1.ActiveDomain("id")
			d2, _ := r2.ActiveDomain("id")
			p1, err := PartitionDomain(d1, k, strategy)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := PartitionDomain(d2, k, strategy)
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
				t.Errorf("%v k=%d: join size = %d, want 3", strategy, k, got.Len())
			}
			// Superset property: server result ≥ exact result.
			if len(res.Pairs) < got.Len() {
				t.Errorf("%v k=%d: server result smaller than join", strategy, k)
			}
			if len(res.Pairs) != got.Len()+discarded {
				t.Errorf("%v k=%d: pair accounting broken: %d != %d+%d", strategy, k, len(res.Pairs), got.Len(), discarded)
			}
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
		p1, _ := PartitionDomain(d1, k, EquiDepth)
		p2, _ := PartitionDomain(d2, k, EquiDepth)
		it1, _ := BuildIndexTable("id", p1)
		it2, _ := BuildIndexTable("id", p2)
		er1, _, _ := encryptFor(key, r1, []string{"id"}, []*IndexTable{it1})
		er2, _, _ := encryptFor(key, r2, []string{"id"}, []*IndexTable{it2})
		sq, _ := BuildServerQuery([]*IndexTable{it1}, []*IndexTable{it2})
		res, err := ExecuteServerQuery(er1, er2, sq)
		if err != nil {
			t.Fatal(err)
		}
		sizes[k] = len(res.Pairs)
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
	p1, _ := PartitionDomain(d1, 2, EquiDepth)
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
	if _, err := openTuple(recv, er.Tuples[0].Etuple, []byte("das:etuple:R1"), r1.Schema()); err != nil {
		t.Errorf("EncryptRelation etuple does not open: %v", err)
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
		p1, err := PartitionDomain(dom, int(k1%5)+1, EquiDepth)
		if err != nil {
			return false
		}
		p2, err := PartitionDomain(dom, int(k2%5)+1, EquiWidth)
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
		p1, err := PartitionDomain(d1, 2, EquiDepth)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := PartitionDomain(d2, 2, HashBuckets)
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
	// Tuples with fewer index entries than query attributes are invalid
	// (extra entries are fine: they carry pushed-down filter columns).
	q2 := ServerQuery{PerAttr: [][]IndexPair{{{I1: 1, I2: 1}}, {{I1: 2, I2: 2}}}}
	short := &EncryptedRelation{Tuples: []EncTuple{{Index: []IndexValue{1}}}}
	if _, err := ExecuteServerQuery(short, &EncryptedRelation{}, q2); err == nil {
		t.Error("short index vector accepted (R1)")
	}
	ok1 := &EncryptedRelation{Tuples: []EncTuple{{Index: []IndexValue{1, 2}}}}
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
	iv := Partition{IsInterval: true, Lo: rel.Int(10), Hi: rel.Int(20)}
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
	single := Partition{IsInterval: true, Lo: rel.Int(5), Hi: rel.Int(5)}
	if single.MaySatisfy(algebra.OpNe, rel.Int(5)) {
		t.Error("[5,5] may satisfy != 5")
	}
	// Kind mismatch is unsatisfiable.
	if iv.MaySatisfy(algebra.OpEq, rel.String_("x")) {
		t.Error("kind-mismatched bound satisfiable")
	}
}

func TestMaySatisfyBuckets(t *testing.T) {
	b := Partition{Members: intDomain(3, 17, 40)}
	if !b.MaySatisfy(algebra.OpLt, rel.Int(5)) {
		t.Error("bucket with 3 should satisfy < 5")
	}
	if b.MaySatisfy(algebra.OpGt, rel.Int(40)) {
		t.Error("bucket max 40 should not satisfy > 40")
	}
	if !b.MaySatisfy(algebra.OpEq, rel.Int(17)) || b.MaySatisfy(algebra.OpEq, rel.Int(18)) {
		t.Error("bucket equality satisfiability wrong")
	}
}

func TestAllowedIndexes(t *testing.T) {
	dom := intDomain(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	parts, _ := PartitionDomain(dom, 5, EquiDepth) // [1,2][3,4][5,6][7,8][9,10]
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
	p1, _ := PartitionDomain(d1, 3, EquiDepth)
	p2, _ := PartitionDomain(d2, 3, EquiDepth)
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
// factored ServerResult is checked against: σ_CondS with both etuples
// inline in every pair, and a decrypt that opens both sides of every pair.
type oraclePair struct {
	E1, E2 []byte
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
	byIdx := make(map[IndexValue][]int, len(r2.Tuples))
	for i, t := range r2.Tuples {
		if filter2.admits(t.Index) {
			byIdx[t.Index[0]] = append(byIdx[t.Index[0]], i)
		}
	}
	var out []oraclePair
	for _, t1 := range r1.Tuples {
		if !filter1.admits(t1.Index) {
			continue
		}
		for i2 := range adm[0][t1.Index[0]] {
			for _, j := range byIdx[i2] {
				t2 := r2.Tuples[j]
				match := true
				for a := 1; a < len(q.PerAttr); a++ {
					if !adm[a][t1.Index[a]][t2.Index[a]] {
						match = false
						break
					}
				}
				if match {
					out = append(out, oraclePair{E1: t1.Etuple, E2: t2.Etuple})
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
	out := rel.New(joined)
	discarded := 0
	for _, p := range pairs {
		t1, err := openTuple(recv1, p.E1, []byte("das:etuple:"+s1.Relation), s1)
		if err != nil {
			return nil, 0, err
		}
		t2, err := openTuple(recv2, p.E2, []byte("das:etuple:"+s2.Relation), s2)
		if err != nil {
			return nil, 0, err
		}
		match := true
		for _, c := range cols {
			if !t1[s1.IndexOf(c)].Equal(t2[s2.IndexOf(c)]) {
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

func newDASSide(t testing.TB, r *rel.Relation, cols []string, k int, strategy Strategy) dasSide {
	t.Helper()
	key := clientKey(t)
	its := make([]*IndexTable, len(cols))
	for i, c := range cols {
		dom, err := r.ActiveDomain(c)
		if err != nil {
			t.Fatal(err)
		}
		s := strategy
		if s == EquiWidth && dom[0].Kind() != rel.KindInt {
			s = EquiDepth
		}
		parts, err := PartitionDomain(dom, k, s)
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
// two-attribute joins and pushed-down filters; and it must reach them by
// opening every shipped etuple exactly once.
func TestServerResultMatchesOracle(t *testing.T) {
	rng := mrand.New(mrand.NewSource(22))
	for _, strategy := range []Strategy{EquiDepth, EquiWidth, HashBuckets} {
		for _, k := range []int{1, 2, 7, 16} {
			for _, cols := range [][]string{{"id"}, {"id", "dept"}} {
				for _, filtered := range []bool{false, true} {
					name := fmt.Sprintf("%v/k=%d/%d-attr/filtered=%v", strategy, k, len(cols), filtered)
					s1 := newDASSide(t, skewedRelation(rng, "R1", 30), cols, k, strategy)
					s2 := newDASSide(t, skewedRelation(rng, "R2", 40), cols, k, strategy)
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
						t.Errorf("%s: an etuple was opened more than once", name)
					}
					if opens1 != len(res.E1) || opens2 != len(res.E2) {
						t.Errorf("%s: opens = %d+%d, tables hold %d+%d", name, opens1, opens2, len(res.E1), len(res.E2))
					}
					if len(res.E1) > s1.r.Len() || len(res.E2) > s2.r.Len() {
						t.Errorf("%s: tables hold %d+%d etuples of %d+%d rows", name, len(res.E1), len(res.E2), s1.r.Len(), s2.r.Len())
					}

					pairs, err := oracleExecute(s1.er, s2.er, sq)
					if err != nil {
						t.Fatal(err)
					}
					want, wantDiscarded, err := oracleDecrypt(pairs, s1.recv, s2.recv, s1.r.Schema(), s2.r.Schema(), cols)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Pairs) != len(pairs) {
						t.Errorf("%s: |R_C| = %d, oracle %d", name, len(res.Pairs), len(pairs))
					}
					if discarded != wantDiscarded {
						t.Errorf("%s: discarded = %d, oracle %d", name, discarded, wantDiscarded)
					}
					if !got.EqualMultiset(want) {
						t.Errorf("%s: result differs from the oracle's", name)
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
}

// R_C and the rows decrypted from it are a function of the inputs: the
// same on every evaluation, and the same for any worker count.
func TestServerResultDeterministic(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	cols := []string{"id", "dept"}
	s1 := newDASSide(t, skewedRelation(rng, "R1", 40), cols, 4, EquiDepth)
	s2 := newDASSide(t, skewedRelation(rng, "R2", 40), cols, 4, EquiDepth)
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
// etuples: the "plaintext" is the sealed field itself.
type plainOpener struct{}

func (plainOpener) Open(ct *hybrid.Ciphertext, _ []byte) ([]byte, error) { return ct.Sealed, nil }

func plainEtuple(t rel.Tuple) []byte {
	return (&hybrid.Ciphertext{Nonce: make([]byte, 12), Sealed: t.Encode(nil)}).Marshal()
}

// The slots of a ServerResult are chosen by a peer: one outside its table
// is an error, never a panic.
func TestDecryptServerResultRejectsBadSlots(t *testing.T) {
	r1, r2 := fixtures(t)
	e1 := [][]byte{plainEtuple(r1.Tuple(1))} // id 2
	e2 := [][]byte{plainEtuple(r2.Tuple(0))} // id 2
	cases := []struct {
		name     string
		res      ServerResult
		wantRows int
		wantErr  bool
	}{
		{"in range", ServerResult{E1: e1, E2: e2, Pairs: []ServerResultPair{{0, 0}}}, 1, false},
		{"I out of range", ServerResult{E1: e1, E2: e2, Pairs: []ServerResultPair{{0, 0}, {1, 0}}}, 0, true},
		{"J out of range", ServerResult{E1: e1, E2: e2, Pairs: []ServerResultPair{{0, 1}}}, 0, true},
		{"slot at uint32 max", ServerResult{E1: e1, E2: e2, Pairs: []ServerResultPair{{math.MaxUint32, 0}}}, 0, true},
		{"pairs but empty tables", ServerResult{Pairs: []ServerResultPair{{0, 0}}}, 0, true},
		{"tables but no pairs", ServerResult{E1: e1, E2: e2}, 0, false},
		{"empty", ServerResult{}, 0, false},
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
		if got.Len() != tc.wantRows || discarded != 0 {
			t.Errorf("%s: %d rows, %d discarded; want %d, 0", tc.name, got.Len(), discarded, tc.wantRows)
		}
	}
}

// Any bytes a peer sends as a das.result body must decrypt to a result or
// an error — no panic, and no allocation out of proportion to the input.
func FuzzDecryptServerResult(f *testing.F) {
	r1, r2 := fixtures(f)
	valid := ServerResult{Pairs: []ServerResultPair{{0, 0}, {1, 1}, {1, 0}, {2, 1}}}
	for _, i := range []int{1, 2, 3} {
		valid.E1 = append(valid.E1, plainEtuple(r1.Tuple(i)))
	}
	for _, j := range []int{0, 1} {
		valid.E2 = append(valid.E2, plainEtuple(r2.Tuple(j)))
	}
	badSlot := valid
	badSlot.Pairs = []ServerResultPair{{0, 0}, {3, 0}}
	badEtuple := valid
	badEtuple.E2 = [][]byte{valid.E2[0], []byte("not a ciphertext")}
	for _, res := range []ServerResult{valid, badSlot, badEtuple, {}} {
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
		if err == nil && got.Len()+discarded != len(res.Pairs) {
			t.Errorf("%d rows + %d discarded from %d pairs", got.Len(), discarded, len(res.Pairs))
		}
		// A pair costs a byte on the wire when both slots are zero and a
		// joined row of four values in memory; 1 KiB per input byte plus
		// fixed slack bounds every honest cost.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*len(data)); alloc > limit {
			t.Errorf("decrypting a %d-byte body allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
	})
}
