package mediation

import (
	"bytes"
	"encoding"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"

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
// algebra.EquiJoin; the empty side still ships B filler buckets.
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
			for _, buckets := range []int{1, 4} {
				n := networkOver(t, nil, tc.r1, tc.r2)
				params := fastParams()
				params.Buckets = buckets
				got, err := n.Query(fixtureSQL, ProtocolPM, params)
				if err != nil {
					t.Fatalf("Buckets %d: %v", buckets, err)
				}
				if got.Len() != 0 || !got.EqualMultiset(want) {
					t.Errorf("Buckets %d: got\n%v\nwant the empty\n%v", buckets, got, want)
				}
				if errs := n.SourceErrors(); len(errs) != 0 {
					t.Errorf("Buckets %d: source errors: %v", buckets, errs)
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
				return hostileFrame(t, m.Type, ecelgamal.CiphertextSize, bad, func(field []byte) encoding.BinaryMarshaler {
					cross.Polys[0][1] = field
					return cross
				})
			}},
		{"evaluation", "source:R1", msgPMEvals, "recv", leakage.PartyClient, telemetry.PhasePostFilter, "source:R1",
			func(t *testing.T, m transport.Message, bad []byte) transport.Message {
				var evals pmEvals
				decodeBody(t, m, &evals)
				return hostileFrame(t, m.Type, ecelgamal.CiphertextSize, bad, func(field []byte) encoding.BinaryMarshaler {
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
				_, srcErrs, err := queryAtMediator(t, n, func(link string, c transport.Conn) transport.Conn {
					if link != target.link {
						return c
					}
					hook := func(m transport.Message) transport.Message {
						if m.Type != target.msgType {
							return m
						}
						return target.rewrite(t, m, bad)
					}
					if target.direction == "send" {
						return &mediatorLinkConn{Conn: c, onSend: hook}
					}
					return &mediatorLinkConn{Conn: c, onRecv: hook}
				}, fixtureSQL, ProtocolPM, params)
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

// The mediator's PM view is a function of its Table 1 row: two inputs
// with equal (B, max load, n, m) and equal tuple-set sizes, but different
// values, put the same sequence of (link, direction, type, body length)
// on the mediator's links, and every ciphertext it holds is
// ecelgamal.CiphertextSize bytes. The second input is a seeded relabeling
// of the first, redrawn until its max loads match.
func TestPMMediatorViewShape(t *testing.T) {
	s1, s2 := testRelations(t)
	build := func(schema rel.Schema, text string, ids []int64) *rel.Relation {
		r := rel.New(schema)
		for _, id := range ids {
			r.MustAppend(rel.Tuple{rel.Int(id), rel.String_(text)})
		}
		return r
	}
	// n = 4, m = 3, ∩ = 2; the doubled value joins the doubled value.
	ids1, ids2 := []int64{1, 2, 3, 3, 7}, []int64{2, 3, 3, 9}
	const n, m = 4, 3
	rng := rand.New(rand.NewSource(27))
	for _, buckets := range []int{1, 3} {
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
			if pmMaxLoad(relabeled1, buckets) == pmMaxLoad(ids1, buckets) &&
				pmMaxLoad(relabeled2, buckets) == pmMaxLoad(ids2, buckets) {
				break
			}
		}
		inputs := [][2]*rel.Relation{
			{build(s1.Schema(), "aaaa", ids1), build(s2.Schema(), "bbbbbb", ids2)},
			{build(s1.Schema(), "wxyz", relabeled1), build(s2.Schema(), "qrstuv", relabeled2)},
		}
		var views [2][]string
		for i, in := range inputs {
			record := func(link, dir string) func(transport.Message) transport.Message {
				return func(msg transport.Message) transport.Message {
					var cts [][]byte
					switch msg.Type {
					case msgPMCoeffs:
						var c pmCoeffs
						decodeBody(t, msg, &c)
						for _, p := range c.Buckets.Polys {
							cts = append(cts, p...)
						}
					case msgPMCross:
						var c pm.ECBuckets
						decodeBody(t, msg, &c)
						for _, p := range c.Polys {
							cts = append(cts, p...)
						}
					case msgPMEvals:
						var e pmEvals
						decodeBody(t, msg, &e)
						for _, ev := range e.Evals {
							cts = append(cts, ev.Cipher)
						}
					}
					for _, c := range cts {
						if len(c) != ecelgamal.CiphertextSize {
							t.Errorf("%s %s %s carries a %d-byte ciphertext", link, dir, msg.Type, len(c))
						}
					}
					views[i] = append(views[i], fmt.Sprintf("%s %s %s %d", link, dir, msg.Type, len(msg.Body)))
					return msg
				}
			}
			reg := telemetry.NewRegistry()
			params := fastParams()
			params.Buckets = buckets
			net := networkOver(t, nil, in[0], in[1])
			got, srcErrs, err := queryAtMediator(t, net, func(link string, c transport.Conn) transport.Conn {
				return &mediatorLinkConn{Conn: c, onSend: record(link, "send"), onRecv: record(link, "recv")}
			}, fixtureSQL, ProtocolPM, params)
			if err != nil || srcErrs["S1"] != nil || srcErrs["S2"] != nil {
				t.Fatalf("query: %v, sources: %v", err, srcErrs)
			}
			if got.Len() != 5 {
				t.Fatalf("input %d: join has %d rows, want 5", i, got.Len())
			}
			ops := reg.OpDeltas()
			if ops["hybrid.seal"] != n+m || ops["paillier.encrypt"] != 0 || ops["paillier.decrypt"] != 0 {
				t.Errorf("input %d: hybrid.seal = %d, paillier encrypt/decrypt = %d/%d; want %d, 0/0",
					i, ops["hybrid.seal"], ops["paillier.encrypt"], ops["paillier.decrypt"], n+m)
			}
		}
		if len(views[0]) == 0 || fmt.Sprint(views[0]) != fmt.Sprint(views[1]) {
			t.Errorf("Buckets %d: mediator views differ:\n%v\n%v", buckets, views[0], views[1])
		}
	}
}

// A seeded loop of PM queries over the deployed topology — TCP, one
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
	rng := rand.New(rand.NewSource(500))
	failed := 0
	for i := 0; i < runs; i++ {
		params := fastParams()
		params.Buckets = 1 + rng.Intn(4)
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
			t.Errorf("query %d (buckets %d): %v", i, params.Buckets, err)
		}
	}
	if failed > 0 {
		t.Fatalf("%d/%d PM queries failed", failed, runs)
	}
}
