package mediation

import (
	"bytes"
	"crypto/ecdh"
	crand "crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/pm"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/session"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// An empty partial result on either side is an empty join, as in
// algebra.EquiJoin; the empty side still ships one filler bucket of load
// 1, the shape of a one-value domain.
func TestPMEmptyPartialResult(t *testing.T) {
	full1, full2 := testRelations(t)
	empty1, empty2 := rel.New(full1.Schema()), rel.New(full2.Schema())
	cases := []struct {
		name   string
		r1, r2 *rel.Relation
	}{
		{"left empty", empty1, full2},
		{"right empty", full1, empty2},
		{"both empty", empty1, empty2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := networkOver(t, nil, tc.r1, tc.r2).Query(fixtureSQL, ProtocolPlaintext, fastParams())
			if err != nil {
				t.Fatal(err)
			}
			ledger := leakage.NewLedger()
			n := networkOver(t, ledger, tc.r1, tc.r2)
			got, err := n.Query(fixtureSQL, ProtocolPM, fastParams())
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != 0 || !got.EqualMultiset(want) {
				t.Errorf("got\n%v\nwant the empty\n%v", got, want)
			}
			if errs := n.SourceErrors(); len(errs) != 0 {
				t.Errorf("source errors: %v", errs)
			}
			for of, r := range map[string]*rel.Relation{"R1.Ajoin": tc.r1, "R2.Ajoin": tc.r2} {
				if r.Len() != 0 {
					continue
				}
				b, _ := ledger.Observed(leakage.PartyMediator, "buckets("+of+")")
				l, _ := ledger.Observed(leakage.PartyMediator, "max-bucket-load("+of+")")
				if b != 1 || l != 1 {
					t.Errorf("empty %s ships %d buckets of load %d, want 1 of load 1", of, b, l)
				}
			}
		})
	}
}

// hostileCiphertexts are byte strings no party may accept as an
// EC-ElGamal ciphertext.
func hostileCiphertexts() map[string][]byte {
	noPoint := make([]byte, ecelgamal.PointSize)
	noPoint[0] = 0x02
	noPoint[ecelgamal.PointSize-1] = 1 // 1 − 3 + b is not a square mod p
	valid := ecelgamal.BaseMul(big.NewInt(1))
	return map[string][]byte{
		"32 bytes":         make([]byte, 32),
		"34 bytes":         make([]byte, 34),
		"all 0xFF":         bytes.Repeat([]byte{0xFF}, ecelgamal.CiphertextSize),
		"x with no point":  append(noPoint, valid...),
		"infinity encoded": {0x00},
	}
}

// A pm.cross coefficient or a pm.evals ciphertext that is not two curve
// points makes the party that decodes it abort before it computes with
// it: the source in cross.encrypt, or the client in client.post-filter.
// One that is not 66 bytes long does not decode: the next party to
// receive the frame refuses it and blames the party that sent it.
func TestPMHostileCiphertext(t *testing.T) {
	targets := []struct {
		name, link, msgType string
		direction           string
		party, phase        string
		sender              string
		rewrite             func(t *testing.T, m transport.Message, bad []byte) transport.Message
	}{
		{"cross coefficient", "source:R1", msgPMCross, "send", leakage.PartySource("S1"), telemetry.PhaseCrossEncrypt, leakage.PartyMediator,
			func(t *testing.T, m transport.Message, bad []byte) transport.Message {
				var cross pm.ECBuckets
				decodeBody(t, m, &cross)
				return hostileFrame(t, m.Type, ecelgamal.CiphertextSize, bad, func(field []byte) codec.Encodable {
					cross.Polys[0][1] = field
					return cross
				})
			}},
		{"evaluation", "source:R1", msgPMEvals, "recv", leakage.PartyClient, telemetry.PhasePostFilter, "source:R1",
			func(t *testing.T, m transport.Message, bad []byte) transport.Message {
				var evals pmEvals
				decodeBody(t, m, &evals)
				return hostileFrame(t, m.Type, ecelgamal.CiphertextSize, bad, func(field []byte) codec.Encodable {
					evals.Evals[0].Cipher = field
					return evals
				})
			}},
	}
	for _, target := range targets {
		for name, bad := range hostileCiphertexts() {
			target, bad := target, bad
			t.Run(target.name+"/"+name, func(t *testing.T) {
				n := newTestNetwork(t, nil)
				params := fastParams()
				params.Timeout = 30 * time.Second // a hang fails, never blocks the suite
				edit := func(link string, m transport.Message) transport.Message {
					if link != target.link || m.Type != target.msgType {
						return m
					}
					return target.rewrite(t, m, bad)
				}
				tp := tap{onRecv: edit}
				if target.direction == "send" {
					tp = tap{onSend: edit}
				}
				_, srcErrs, err := tp.query(t, n, fixtureSQL, ProtocolPM, params)
				var pe *ProtocolError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want a *ProtocolError", err)
				}
				party, phase := hostileBlame(bad, ecelgamal.CiphertextSize, target.party, target.phase, target.sender)
				if pe.Party != party || pe.Phase != phase {
					t.Errorf("blamed %s/%s, want %s/%s (%v)", pe.Party, pe.Phase, party, phase, err)
				}
				if resilience.Retryable(err) {
					t.Errorf("hostile ciphertext classified retryable: %v", err)
				}
				if target.party == leakage.PartySource("S1") && (!errors.As(srcErrs["S1"], &pe) || pe.Party != party || pe.Phase != phase) {
					t.Errorf("S1 returned %v, want its own %s/%s abort", srcErrs["S1"], party, phase)
				}
			})
		}
	}
}

// pmMaxLoad is the maximum bucket load of a set of integer join values,
// computed as servePM buckets them.
func pmMaxLoad(ids []int64, b int) int {
	loads := make([]int, b)
	seen := map[int64]bool{}
	max := 0
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		i := pm.BucketIndex(pm.RootOfBytes(rel.EncodeValues([]rel.Value{rel.Int(id)}, nil)), b)
		loads[i]++
		if loads[i] > max {
			max = loads[i]
		}
	}
	return max
}

// pmView runs the PM join of in with params and every mediator link
// tapped, checks it against the plaintext join, and returns the
// mediator's view lines, with the query's op counts. Every ciphertext
// the mediator holds must be ecelgamal.CiphertextSize bytes.
func pmView(t *testing.T, in [2]*rel.Relation, params Params) ([]string, map[string]int64) {
	t.Helper()
	want, err := networkOver(t, nil, in[0], in[1]).Query(fixtureSQL, ProtocolPlaintext, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var tr transcript
	got, srcErrs, err := tap{log: &tr}.query(t, networkOver(t, nil, in[0], in[1]), fixtureSQL, ProtocolPM, params)
	if err != nil || srcErrs["S1"] != nil || srcErrs["S2"] != nil {
		t.Fatalf("query: %v, sources: %v", err, srcErrs)
	}
	if !got.EqualMultiset(want) {
		t.Fatalf("got\n%v\nwant\n%v", got, want)
	}
	ops := reg.OpDeltas()
	for _, f := range tr.on("") {
		var cts [][]byte
		switch f.Type {
		case msgPMCoeffs:
			var c pmCoeffs
			decodeBody(t, f.Message, &c)
			for _, p := range c.Buckets.Polys {
				cts = append(cts, p...)
			}
		case msgPMCross:
			var c pm.ECBuckets
			decodeBody(t, f.Message, &c)
			for _, p := range c.Polys {
				cts = append(cts, p...)
			}
		case msgPMEvals:
			var e pmEvals
			decodeBody(t, f.Message, &e)
			for _, ev := range e.Evals {
				cts = append(cts, ev.Cipher)
			}
		}
		for _, c := range cts {
			if len(c) != ecelgamal.CiphertextSize {
				t.Errorf("%s %s %s carries a %d-byte ciphertext", f.link, f.dir, f.Type, len(c))
			}
		}
	}
	return tr.lines(nil), ops
}

// The mediator's PM view is a function of its Table 1 row: two inputs
// with equal (n, m, max loads) and equal tuple-set sizes, but different
// values, put the same sequence of (link, direction, type, body length)
// on the mediator's links. The second input is a seeded relabeling of
// the first, redrawn until its max loads under the derived bucket counts
// match.
func TestPMMediatorViewShape(t *testing.T) {
	s1, s2 := testRelations(t)
	// n = 4, m = 3, ∩ = 2; the doubled value joins the doubled value.
	ids1, ids2 := []int64{1, 2, 3, 3, 7}, []int64{2, 3, 3, 9}
	const n, m = 4, 3
	b1, b2 := pm.BucketCount(n), pm.BucketCount(m)
	rng := rand.New(rand.NewSource(27))
	var relabeled1, relabeled2 []int64
	for {
		label := map[int64]int64{}
		for _, id := range append(append([]int64{}, ids1...), ids2...) {
			if _, ok := label[id]; !ok {
				label[id] = 1000 + rng.Int63n(1_000_000)
			}
		}
		relabeled1, relabeled2 = nil, nil
		for _, id := range ids1 {
			relabeled1 = append(relabeled1, label[id])
		}
		for _, id := range ids2 {
			relabeled2 = append(relabeled2, label[id])
		}
		if pmMaxLoad(relabeled1, b1) == pmMaxLoad(ids1, b1) && pmMaxLoad(relabeled2, b2) == pmMaxLoad(ids2, b2) {
			break
		}
	}
	inputs := [][2]*rel.Relation{
		{buildComm(s1.Schema(), "aaaa", ids1...), buildComm(s2.Schema(), "bbbbbb", ids2...)},
		{buildComm(s1.Schema(), "wxyz", relabeled1...), buildComm(s2.Schema(), "qrstuv", relabeled2...)},
	}
	var views [2][]string
	for i, in := range inputs {
		var ops map[string]int64
		views[i], ops = pmView(t, in, fastParams())
		if ops["hybrid.seal"] != n+m || ops["paillier.encrypt"] != 0 || ops["paillier.decrypt"] != 0 {
			t.Errorf("input %d: hybrid.seal = %d, paillier encrypt/decrypt = %d/%d; want %d, 0/0",
				i, ops["hybrid.seal"], ops["paillier.encrypt"], ops["paillier.decrypt"], n+m)
		}
	}
	if len(views[0]) == 0 || fmt.Sprint(views[0]) != fmt.Sprint(views[1]) {
		t.Errorf("mediator views differ:\n%v\n%v", views[0], views[1])
	}
}

// Each source derives its bucket count from its own |domactive(A)| and
// nothing else. Params.Buckets is no longer sent, so no value of it
// changes anything on the mediator's links; and two inputs of equal
// domain sizes but different values give equal bucket counts,
// pm.BucketCount of the size, at the mediator and at the opposite
// source.
func TestPMBucketsFromOwnDomain(t *testing.T) {
	s1, s2 := testRelations(t)
	in := [2]*rel.Relation{buildComm(s1.Schema(), "a", idRange(1, 7, 9)...), buildComm(s2.Schema(), "b", idRange(1, 7, 5)...)}
	var first []string
	for _, buckets := range []int{0, 1, 4, 4096} {
		params := fastParams()
		params.Buckets = buckets
		view, _ := pmView(t, in, params)
		if first == nil {
			first = view
		} else if fmt.Sprint(view) != fmt.Sprint(first) {
			t.Errorf("Params.Buckets = %d changed the mediator's view:\n%v\n%v", buckets, view, first)
		}
	}
	for _, n := range []int64{1, 2, 3, 5, 9, 17, 45} {
		for _, from := range []int64{1, 1_000_003} {
			ledger := leakage.NewLedger()
			r1 := buildComm(s1.Schema(), "a", idRange(from, 7, n)...)
			r2 := buildComm(s2.Schema(), "b", idRange(from+5, 7, n+1)...)
			if _, err := networkOver(t, ledger, r1, r2).Query(fixtureSQL, ProtocolPM, fastParams()); err != nil {
				t.Fatal(err)
			}
			for _, obs := range []struct {
				party, of string
				want      int
			}{
				{leakage.PartyMediator, "R1.Ajoin", pm.BucketCount(int(n))},
				{leakage.PartyMediator, "R2.Ajoin", pm.BucketCount(int(n + 1))},
				{leakage.PartySource("S2"), "opposite", pm.BucketCount(int(n))},
				{leakage.PartySource("S1"), "opposite", pm.BucketCount(int(n + 1))},
			} {
				if b, _ := ledger.Observed(obs.party, "buckets("+obs.of+")"); b != int64(obs.want) {
					t.Errorf("n = %d from %d: %s sees buckets(%s) = %d, want %d", n, from, obs.party, obs.of, b, obs.want)
				}
			}
		}
	}
}

// pmOps is one PM query's point-operation counts.
type pmOps struct{ mul, baseMul, add int64 }

// pmOpsClosedForm counts one PM query's P-256 operations
// (docs/PROTOCOLS.md). Source 1 has n values in B1 buckets of degree L1,
// source 2 has m, B2 and L2. Each source encrypts its B·L shipped
// coefficients: one multiplication, two fixed-base ones and one
// addition each. Before evaluating the opposite polynomial it encrypts
// one zero and adds it to each opposite bucket's constant coefficient.
// At each own value it runs L − 1 Horner steps of a ScalarMul and an
// Add, the masking ScalarMul by r, one AddPlain of the scaled leading
// term and s, and s·G for the blob. The client takes its key's public
// point from the ECDH key, multiplying nothing, and decrypts n + m
// evaluations.
func pmOpsClosedForm(n, m, b1, b2, l1, l2 int64) pmOps {
	coeffs := b1*l1 + b2*l2
	return pmOps{
		mul:     coeffs + 2*n*l2 + 2*m*l1 + (n + m) + 2,
		baseMul: 2*coeffs + 2*(n+m) + 4,
		add:     coeffs + 2*n*l2 + 2*m*l1 + 2*(b1+b2) + 2,
	}
}

// One PM query does exactly the closed form's point operations, on
// pm_small's 45 ⋈ 30-key shape and on the 150 ⋈ 100-key TPC-H shape,
// with loads counted by pm.BucketIndex under the derived bucket counts.
// On the first, B = 4 for both sources did 2,460 variable-base
// multiplications, and a fresh E(s) per evaluation 942.
func TestPMOpCount(t *testing.T) {
	for _, tc := range []struct {
		keys1, mult1, keys2, mult2 int
		want                       pmOps
	}{
		{45, 1, 30, 15, pmOps{869, 538, 890}},
		{150, 1, 100, 15, pmOps{3384, 2168, 3518}},
	} {
		r1, r2 := benchRelations(t, tc.keys1, tc.mult1, tc.keys2, tc.mult2, 1, 1)
		shape := func(r *rel.Relation) (n, b, l int64) {
			dom, err := r.ActiveDomain("id")
			if err != nil {
				t.Fatal(err)
			}
			n, b, l = int64(len(dom)), int64(pm.BucketCount(len(dom))), 1
			loads := make([]int64, b)
			for _, v := range dom {
				i := pm.BucketIndex(pm.RootOfValue(v), int(b))
				loads[i]++
				l = max(l, loads[i])
			}
			return n, b, l
		}
		n, b1, l1 := shape(r1)
		m, b2, l2 := shape(r2)
		_, ops := pmView(t, [2]*rel.Relation{r1, r2}, Params{})
		got := pmOps{ops["ecelgamal.mul"], ops["ecelgamal.base_mul"], ops["ecelgamal.add"]}
		if form := pmOpsClosedForm(n, m, b1, b2, l1, l2); got != form || got != tc.want {
			t.Errorf("%d ⋈ %d keys (B = %d, %d; L = %d, %d): mul/base_mul/add = %v, closed form %v, pinned %v",
				n, m, b1, b2, l1, l2, got, form, tc.want)
		}
	}
}

// A loop of PM queries over the deployed topology — TCP, one
// multiplexed client link, pooled source links — has no failures and
// every result is the plaintext join.
func TestPMSessionTCPLoop(t *testing.T) {
	runs := 500
	if testing.Short() {
		runs = 50
	}
	f := getFixture(t)
	want := expectedJoin(t)
	addr := sessionTopology(t, nil, nil, nil)
	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mux := session.NewMux(conn, session.Config{})
	defer mux.Close()
	failed := 0
	for i := 0; i < runs; i++ {
		params := fastParams()
		params.Timeout = 30 * time.Second
		st, err := mux.Open()
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.client.Query(st, fixtureSQL, ProtocolPM, params)
		st.Close()
		if err == nil && !res.EqualMultiset(want) {
			err = errors.New("wrong join")
		}
		if err != nil {
			failed++
			t.Errorf("query %d: %v", i, err)
		}
	}
	if failed > 0 {
		t.Fatalf("%d/%d PM queries failed", failed, runs)
	}
}

// A pm.cross whose shape no source derives — a bucket count that is not
// a power of two or exceeds pm.MaxBuckets, or buckets of degree 0 — ends
// the query before the receiving source reads a ciphertext, in a
// terminal *ProtocolError blaming the mediator that sent it.
func TestHostilePMCross(t *testing.T) {
	reshape := func(b, degree int) func(pm.ECBuckets) pm.ECBuckets {
		return func(cross pm.ECBuckets) pm.ECBuckets {
			out := pm.ECBuckets{Polys: make([][][]byte, b)}
			for i := range out.Polys {
				for k := 0; k < degree; k++ {
					out.Polys[i] = append(out.Polys[i], cross.Polys[0][0])
				}
			}
			return out
		}
	}
	for name, reshaped := range map[string]func(pm.ECBuckets) pm.ECBuckets{
		"buckets 3":    reshape(3, 2),
		"buckets 2^13": reshape(2*pm.MaxBuckets, 1),
		"degree 0":     reshape(2, 0),
	} {
		reshaped := reshaped
		t.Run(name, func(t *testing.T) {
			params := fastParams()
			params.Timeout = 30 * time.Second // a hang fails, never blocks the suite
			_, srcErrs, err := tap{onSend: rewrite(t, "source:R1", msgPMCross, func(cross *pm.ECBuckets) {
				*cross = reshaped(*cross)
			})}.query(t, newTestNetwork(t, nil), fixtureSQL, ProtocolPM, params)
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Party != leakage.PartyMediator {
				t.Fatalf("err = %v, want a *ProtocolError blaming the mediator", err)
			}
			if resilience.Retryable(err) {
				t.Errorf("hostile pm.cross classified retryable: %v", err)
			}
			if !errors.As(srcErrs["S1"], &pe) || pe.Party != leakage.PartyMediator {
				t.Errorf("S1 returned %v, want a *ProtocolError blaming the mediator", srcErrs["S1"])
			}
		})
	}
}

// A mediator that relays to S1, in place of S2's polynomial, one with
// roots at S1's own join values encrypted under a key of its own cannot
// open any of S1's blobs under that key: S1 evaluates under the query
// key the client signed. S1 accepts the forged shape, so the query runs
// through; only what the mediator can open is checked.
func TestPMForgedCrossOpensNothingAtMediator(t *testing.T) {
	r1, _ := testRelations(t)
	groups, err := r1.GroupByColumns([]string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]*big.Int, len(groups))
	for i, g := range groups {
		roots[i] = pm.RootOfBytes(rel.EncodeValues(g.Key, nil))
	}
	forged, err := pm.BuildBuckets(roots, pm.BucketCount(len(roots)), ecelgamal.Order())
	if err != nil {
		t.Fatal(err)
	}
	forgerKey, err := ecdh.P256().GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	forgerSK := ecelgamal.KeyFromECDH(forgerKey)
	forgerPK, err := ecelgamal.ParsePublicKey(forgerSK.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	cross, err := forged.EncryptEC(forgerPK)
	if err != nil {
		t.Fatal(err)
	}
	var tr transcript
	_, srcErrs, _ := tap{onSend: rewrite(t, "source:R1", msgPMCross, func(c *pm.ECBuckets) { *c = *cross }), log: &tr}.
		query(t, newTestNetwork(t, nil), fixtureSQL, ProtocolPM, fastParams())
	if srcErrs["S1"] != nil {
		t.Fatalf("S1 refused the forged polynomial: %v", srcErrs["S1"])
	}
	var coeffs pmCoeffs
	var evals pmEvals
	tr.first(t, "source:R1", msgPMCoeffs, &coeffs)
	tr.first(t, "source:R1", msgPMEvals, &evals)
	if len(evals.Evals) != len(roots) {
		t.Fatalf("S1 sent %d evaluations, want one per each of its %d values", len(evals.Evals), len(roots))
	}
	var req Request
	tr.first(t, "client", msgRequest, &req)
	layout, err := newTupLayout(coeffs.Schema, []string{"id"}, pmTag(coeffs.Session, queryPublic(t, req.QueryKey, req.QueryKeyIndex)))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range evals.Evals {
		if _, ok, err := pm.OpenEval(forgerSK, e, layout.aad); err != nil || ok {
			t.Errorf("evaluation %d: opened = %v, err = %v under the mediator's key", i, ok, err)
		}
	}
}

// The mediator knows the query key, so it can forge an evaluation that
// opens: one that opens to an empty tuple set, which no source seals,
// aborts the query at the client, blamed on the mediator.
func TestPMEmptyTupleSetBlamesMediator(t *testing.T) {
	var tr transcript
	_, _, err := tap{log: &tr, onSend: rewrite(t, "client", msgPMResult, func(res *pmResult) {
		var req Request
		tr.first(t, "client", msgRequest, &req)
		var pq PartialQuery
		tr.first(t, "source:R1", msgPartialQuery, &pq)
		queryKey := queryPublic(t, req.QueryKey, req.QueryKeyIndex)
		layout, err := newTupLayout(res.Schema1, pq.JoinCols, pmTag(res.Session, queryKey))
		if err != nil {
			t.Fatal(err)
		}
		pk := ecelgamal.PublicKeyFromECDH(queryKey)
		s := big.NewInt(12345)
		es, err := pk.Encrypt(crand.Reader, s)
		if err != nil {
			t.Fatal(err)
		}
		empty, err := layout.encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := pm.SealPayload(ecelgamal.BaseMul(s), empty, layout.aad)
		if err != nil {
			t.Fatal(err)
		}
		res.Evals1[0] = pm.Eval{Cipher: es.Bytes(), Sealed: sealed}
	})}.query(t, newTestNetwork(t, nil), fixtureSQL, ProtocolPM, fastParams())
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Party != leakage.PartyMediator || !strings.Contains(err.Error(), "holds no rows") {
		t.Fatalf("err = %v, want the empty tuple set blamed on the mediator", err)
	}
	if resilience.Retryable(err) {
		t.Errorf("empty tuple set classified retryable: %v", err)
	}
}
