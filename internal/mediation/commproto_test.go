package mediation

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/crypto/commutative"
	"github.com/secmediation/secmediation/internal/leakage"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// An empty partial result on either side is an empty join, as in
// algebra.EquiJoin.
func TestCommEmptyPartialResult(t *testing.T) {
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
			n := networkOver(t, nil, tc.r1, tc.r2)
			got, err := n.Query(fixtureSQL, ProtocolCommutative, fastParams())
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != 0 || !got.EqualMultiset(want) {
				t.Errorf("got\n%v\nwant the empty\n%v", got, want)
			}
			if errs := n.SourceErrors(); len(errs) != 0 {
				t.Errorf("source errors: %v", errs)
			}
		})
	}
}

// A comm.cross element that is not a group element makes the receiving
// source abort before its key touches it; everyone else unwinds. One that
// is not 32 bytes long does not decode: the source refuses the frame and
// blames the mediator that sent it.
func TestCommHostileCrossElement(t *testing.T) {
	offCurve := make([]byte, commutative.ElementSize)
	offCurve[commutative.ElementSize-1] = 1 // 1 − 3 + b is not a square mod p
	cases := map[string][]byte{
		"31 bytes":  make([]byte, 31),
		"33 bytes":  make([]byte, 33),
		"all 0xFF":  bytes.Repeat([]byte{0xFF}, commutative.ElementSize),
		"off curve": offCurve,
	}
	for name, bad := range cases {
		bad := bad
		t.Run(name, func(t *testing.T) {
			n := newTestNetwork(t, nil)
			_, srcErrs, err := tap{onSend: func(link string, m transport.Message) transport.Message {
				if link != "source:R1" || m.Type != msgCommCross {
					return m
				}
				var cross commCross
				decodeBody(t, m, &cross)
				return hostileFrame(t, m.Type, commutative.ElementSize, bad, func(field []byte) codec.Encodable {
					cross.Elems[1] = field
					return cross
				})
			}}.query(t, n, fixtureSQL, ProtocolCommutative, fastParams())
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want a *ProtocolError", err)
			}
			party, phase := hostileBlame(bad, commutative.ElementSize, leakage.PartySource("S1"), telemetry.PhaseCrossEncrypt, leakage.PartyMediator)
			if pe.Party != party || pe.Phase != phase {
				t.Errorf("blamed %s/%s, want %s/%s", pe.Party, pe.Phase, party, phase)
			}
			if resilience.Retryable(err) {
				t.Errorf("hostile element classified retryable: %v", err)
			}
			if !errors.As(srcErrs["S1"], &pe) || pe.Party != party || pe.Phase != phase {
				t.Errorf("S1 returned %v, want its own %s/%s abort", srcErrs["S1"], party, phase)
			}
		})
	}
}

// A comm.cross-back that does not hold one element per element sent
// cannot be paired by position: the mediator aborts in its match phase,
// blames the source that sent it, and every party unwinds.
func TestCommCrossBackCountMismatch(t *testing.T) {
	cases := map[string]func([][]byte) [][]byte{
		"one too few":  func(e [][]byte) [][]byte { return e[:len(e)-1] },
		"one too many": func(e [][]byte) [][]byte { return append(e, e[0]) },
	}
	for name, edit := range cases {
		edit := edit
		t.Run(name, func(t *testing.T) {
			n := newTestNetwork(t, nil)
			_, _, err := tap{onRecv: rewrite(t, "source:R1", msgCommCrossBack, func(back *commCross) {
				back.Elems = edit(back.Elems)
			})}.query(t, n, fixtureSQL, ProtocolCommutative, fastParams())
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want a *ProtocolError", err)
			}
			if want := leakage.PartySource("R1"); pe.Party != want || pe.Phase != telemetry.PhaseMatch {
				t.Errorf("blamed %s/%s, want %s/%s", pe.Party, pe.Phase, want, telemetry.PhaseMatch)
			}
			if resilience.Retryable(err) {
				t.Errorf("count mismatch classified retryable: %v", err)
			}
		})
	}
}

// The client opens every relayed pair and checks that it is Tup1(a) and
// Tup2(a) of one a, and that no a comes twice. A mediator that swaps the
// second sets of two pairs, or replays a pair, would otherwise get a
// cross product of unrelated tuples, or duplicate rows, into the result;
// the client blames it.
func TestCommResultMismatchedPairAborts(t *testing.T) {
	cases := map[string]func([]commPair) []commPair{
		"swap": func(p []commPair) []commPair {
			p[0].T2, p[1].T2 = p[1].T2, p[0].T2
			return p
		},
		"replay": func(p []commPair) []commPair { return append(p, p[0]) },
	}
	for name, edit := range cases {
		edit := edit
		t.Run(name, func(t *testing.T) {
			got, _, err := tap{onSend: rewrite(t, "client", msgCommResult, func(res *commResult) {
				if len(res.Pairs) < 2 {
					t.Errorf("%d pairs, want at least 2", len(res.Pairs))
					return
				}
				res.Pairs = edit(res.Pairs)
			})}.query(t, newTestNetwork(t, nil), fixtureSQL, ProtocolCommutative, fastParams())
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("query returned %v, %v; want a *ProtocolError", got, err)
			}
			if pe.Party != leakage.PartyMediator || pe.Phase != "" {
				t.Errorf("blamed %s/%s, want %s: %v", pe.Party, pe.Phase, leakage.PartyMediator, err)
			}
			if resilience.Retryable(err) {
				t.Errorf("mismatched pair classified retryable: %v", err)
			}
		})
	}
}

// viewOf runs the commutative join of in with the mediator's links
// tapped, checks it against the plaintext join, and returns the view
// lines of the frames keep selects (every frame when keep is nil), with
// the query's op counts. Every element a selected frame carries must be
// ElementSize bytes.
func viewOf(t *testing.T, in [2]*rel.Relation, keep func(frame) bool) ([]string, map[string]int64) {
	t.Helper()
	want, err := networkOver(t, nil, in[0], in[1]).Query(fixtureSQL, ProtocolPlaintext, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var tr transcript
	got, srcErrs, err := tap{log: &tr}.query(t, networkOver(t, nil, in[0], in[1]), fixtureSQL, ProtocolCommutative, fastParams())
	if err != nil || srcErrs["S1"] != nil || srcErrs["S2"] != nil {
		t.Fatalf("query: %v, sources: %v", err, srcErrs)
	}
	if !got.EqualMultiset(want) {
		t.Fatalf("got\n%v\nwant\n%v", got, want)
	}
	ops := reg.OpDeltas()
	for _, f := range tr.on("") {
		if keep != nil && !keep(f) {
			continue
		}
		var elems [][]byte
		switch f.Type {
		case msgCommOffer:
			var o commOffer
			decodeBody(t, f.Message, &o)
			for _, it := range o.Items {
				elems = append(elems, it.Hash)
			}
		case msgCommCross, msgCommCrossBack:
			var c commCross
			decodeBody(t, f.Message, &c)
			elems = c.Elems
		}
		for _, el := range elems {
			if len(el) != commutative.ElementSize {
				t.Errorf("%s %s %s carries a %d-byte element", f.link, f.dir, f.Type, len(el))
			}
		}
	}
	return tr.lines(keep), ops
}

// buildComm is a relation of schema with one row per id, all carrying text.
func buildComm(schema rel.Schema, text string, ids ...int64) *rel.Relation {
	r := rel.New(schema)
	for _, id := range ids {
		r.MustAppend(rel.Tuple{rel.Int(id), rel.String_(text)})
	}
	return r
}

// The mediator's view is a function of its Table 1 row: two inputs with
// equal (|domactive(R1)|, |domactive(R2)|, |∩|) and equal tuple-set sizes
// per matched value, but different values attached to them, put the same
// sequence of (link, direction, type, body length) on the mediator's
// links, and every element it holds is ElementSize bytes.
func TestCommMediatorViewShape(t *testing.T) {
	s1, s2 := testRelations(t)
	// n = 4, m = 3, ∩ = 2; the doubled value joins the doubled value.
	inputs := [][2]*rel.Relation{
		{buildComm(s1.Schema(), "aaaa", 1, 2, 3, 3, 7), buildComm(s2.Schema(), "bbbbbb", 2, 3, 3, 9)},
		{buildComm(s1.Schema(), "wxyz", 50, 60, 60, 80, 90), buildComm(s2.Schema(), "qrstuv", 10, 60, 60, 90)},
	}
	const n, m = 4, 3
	var views [2][]string
	for i, in := range inputs {
		var ops map[string]int64
		views[i], ops = viewOf(t, in, nil)
		if ops["commutative.exp"] != 2*(n+m) || ops["oracle.hash"] != n+m {
			t.Errorf("input %d: commutative.exp = %d, oracle.hash = %d; want %d, %d",
				i, ops["commutative.exp"], ops["oracle.hash"], 2*(n+m), n+m)
		}
	}
	// The mediator talks to its three links in a fixed order, so the
	// interleaving is part of the view.
	if len(views[0]) == 0 || fmt.Sprint(views[0]) != fmt.Sprint(views[1]) {
		t.Errorf("mediator views differ:\n%v\n%v", views[0], views[1])
	}
}

// A source's view is exactly its Table 1 row, |domactive(opposite)|: two
// inputs with equal active-domain sizes on each side but different
// multiplicities, TEXT lengths and intersections send each source the
// same frames, and its comm.cross is vlen(k) + 32·k bytes (and its
// digest) for k opposite elements.
func TestCommSourceViewShape(t *testing.T) {
	s1, s2 := testRelations(t)
	// |domactive(R1)| = 4 and |domactive(R2)| = 3 in both inputs.
	inputs := [][2]*rel.Relation{
		{buildComm(s1.Schema(), "a", 1, 2, 3, 7), buildComm(s2.Schema(), "b", 2, 3, 9)},
		{buildComm(s1.Schema(), "a much longer text", 1, 1, 1, 2, 3, 3, 7),
			buildComm(s2.Schema(), "", 1, 2, 2, 2, 2, 5, 5)},
	}
	const digest = 4
	opposite := map[string]int{"source:R1": 3, "source:R2": 4}
	// What the mediator sends a source is what that source sees.
	toSources := func(f frame) bool { return f.link != "client" && f.dir == "send" }
	var views [2][]string
	for i, in := range inputs {
		views[i], _ = viewOf(t, in, toSources)
		for link, k := range opposite {
			want := fmt.Sprintf("%s send %s %d", link, msgCommCross, digest+uvarintLen(k)+commutative.ElementSize*k)
			if !slices.Contains(views[i], want) {
				t.Errorf("input %d: no %q in the view %v", i, want, views[i])
			}
		}
	}
	if len(views[0]) == 0 || fmt.Sprint(views[0]) != fmt.Sprint(views[1]) {
		t.Errorf("source views differ:\n%v\n%v", views[0], views[1])
	}
}
