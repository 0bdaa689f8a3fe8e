package mediation

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/secmediation/secmediation/internal/crypto/commutative"
	"github.com/secmediation/secmediation/internal/leakage"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// mediatorLinkConn is the mediator's end of one of its links. onSend and
// onRecv (either may be nil) see each message on its way through and may
// return a replacement: a tap when they only read, a deviating mediator
// when they rewrite.
type mediatorLinkConn struct {
	transport.Conn
	onSend, onRecv func(transport.Message) transport.Message
}

func (c *mediatorLinkConn) Send(m transport.Message) error {
	if c.onSend != nil {
		m = c.onSend(m)
	}
	return c.Conn.Send(m)
}

func (c *mediatorLinkConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && c.onRecv != nil {
		m = c.onRecv(m)
	}
	return m, err
}

// queryAtMediator runs one query over n's parties with the mediator's end
// of every link — "client" and "source:<relation>" — wrapped by wrap. It
// returns once every party has unwound, with each source's Serve error by
// source name.
func queryAtMediator(t *testing.T, n *Network, wrap func(link string, c transport.Conn) transport.Conn, sql string, proto Protocol, params Params) (*rel.Relation, map[string]error, error) {
	t.Helper()
	var wg sync.WaitGroup
	var mu sync.Mutex
	srcErrs := map[string]error{}
	for _, src := range n.Sources {
		src := src
		for name := range src.Catalog {
			name := name
			n.Mediator.Routes[name] = func() (transport.Conn, error) {
				a, b := transport.Pair()
				wg.Add(1)
				go func() {
					defer wg.Done()
					err := src.Serve(b)
					b.Close()
					mu.Lock()
					srcErrs[src.Name] = err
					mu.Unlock()
				}()
				return wrap("source:"+name, a), nil
			}
		}
	}
	clientSide, mediatorSide := transport.Pair()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = n.Mediator.HandleSession(wrap("client", mediatorSide))
		mediatorSide.Close()
	}()
	res, err := n.Client.Query(clientSide, sql, proto, params)
	clientSide.Close()
	wg.Wait()
	return res, srcErrs, err
}

// decodeBody decodes a message's sealed body, failing the test otherwise.
func decodeBody(t *testing.T, m transport.Message, v any) {
	t.Helper()
	payload, err := transport.Payload(m)
	if err == nil {
		err = transport.Decode(payload, v)
	}
	if err != nil {
		t.Errorf("decoding %s: %v", m.Type, err)
	}
}

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
			for _, idMode := range []bool{false, true} {
				n := networkOver(t, nil, tc.r1, tc.r2)
				params := fastParams()
				params.IDMode = idMode
				got, err := n.Query(fixtureSQL, ProtocolCommutative, params)
				if err != nil {
					t.Fatalf("IDMode %v: %v", idMode, err)
				}
				if got.Len() != 0 || !got.EqualMultiset(want) {
					t.Errorf("IDMode %v: got\n%v\nwant the empty\n%v", idMode, got, want)
				}
				if errs := n.SourceErrors(); len(errs) != 0 {
					t.Errorf("IDMode %v: source errors: %v", idMode, errs)
				}
			}
		})
	}
}

// A comm.cross element that is not a group element makes the receiving
// source abort before its key touches it; everyone else unwinds.
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
			_, srcErrs, err := queryAtMediator(t, n, func(link string, c transport.Conn) transport.Conn {
				if link != "source:R1" {
					return c
				}
				return &mediatorLinkConn{Conn: c, onSend: func(m transport.Message) transport.Message {
					if m.Type != msgCommCross {
						return m
					}
					var cross commCross
					decodeBody(t, m, &cross)
					cross.Items[1].Hash = bad
					out, err := transport.NewMessage(m.Type, cross)
					if err != nil {
						t.Error(err)
					}
					return out
				}}
			}, fixtureSQL, ProtocolCommutative, fastParams())
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want a *ProtocolError", err)
			}
			if pe.Party != leakage.PartySource("S1") || pe.Phase != telemetry.PhaseCrossEncrypt {
				t.Errorf("blamed %s/%s, want %s/%s", pe.Party, pe.Phase, leakage.PartySource("S1"), telemetry.PhaseCrossEncrypt)
			}
			if resilience.Retryable(err) {
				t.Errorf("hostile element classified retryable: %v", err)
			}
			if !errors.As(srcErrs["S1"], &pe) || pe.Phase != telemetry.PhaseCrossEncrypt {
				t.Errorf("S1 returned %v, want its own cross.encrypt abort", srcErrs["S1"])
			}
		})
	}
}

// The mediator's view is a function of its Table 1 row: two inputs with
// equal (|domactive(R1)|, |domactive(R2)|, |∩|) and equal tuple-set sizes
// per matched value, but different values attached to them, put the same
// sequence of (link, direction, type, body length) on the mediator's
// links, and every element it holds is ElementSize bytes.
func TestCommMediatorViewShape(t *testing.T) {
	s1, s2 := testRelations(t)
	build := func(schema rel.Schema, text string, ids ...int64) *rel.Relation {
		r := rel.New(schema)
		for _, id := range ids {
			r.MustAppend(rel.Tuple{rel.Int(id), rel.String_(text)})
		}
		return r
	}
	// n = 4, m = 3, ∩ = 2; the doubled value joins the doubled value.
	inputs := [][2]*rel.Relation{
		{build(s1.Schema(), "aaaa", 1, 2, 3, 3, 7), build(s2.Schema(), "bbbbbb", 2, 3, 3, 9)},
		{build(s1.Schema(), "wxyz", 50, 60, 60, 80, 90), build(s2.Schema(), "qrstuv", 10, 60, 60, 90)},
	}
	const n, m = 4, 3
	for _, idMode := range []bool{false, true} {
		var views [2][]string
		for i, in := range inputs {
			record := func(link, dir string) func(transport.Message) transport.Message {
				return func(msg transport.Message) transport.Message {
					var items []commItem
					switch msg.Type {
					case msgCommOffer:
						var o commOffer
						decodeBody(t, msg, &o)
						items = o.Items
					case msgCommCross, msgCommCrossBack:
						var c commCross
						decodeBody(t, msg, &c)
						items = c.Items
					}
					for _, it := range items {
						if len(it.Hash) != commutative.ElementSize {
							t.Errorf("%s %s %s carries a %d-byte element", link, dir, msg.Type, len(it.Hash))
						}
					}
					// Only the mediator's session goroutine uses its links.
					views[i] = append(views[i], fmt.Sprintf("%s %s %s %d", link, dir, msg.Type, len(msg.Body)))
					return msg
				}
			}
			reg := telemetry.NewRegistry()
			params := fastParams()
			params.IDMode = idMode
			params.Telemetry = reg
			net := networkOver(t, nil, in[0], in[1])
			got, srcErrs, err := queryAtMediator(t, net, func(link string, c transport.Conn) transport.Conn {
				return &mediatorLinkConn{Conn: c, onSend: record(link, "send"), onRecv: record(link, "recv")}
			}, fixtureSQL, ProtocolCommutative, params)
			if err != nil || srcErrs["S1"] != nil || srcErrs["S2"] != nil {
				t.Fatalf("query: %v, sources: %v", err, srcErrs)
			}
			if got.Len() != 5 {
				t.Fatalf("input %d: join has %d rows, want 5", i, got.Len())
			}
			ops := reg.OpDeltas()
			if ops["commutative.exp"] != 2*(n+m) || ops["oracle.hash"] != n+m {
				t.Errorf("input %d: commutative.exp = %d, oracle.hash = %d; want %d, %d",
					i, ops["commutative.exp"], ops["oracle.hash"], 2*(n+m), n+m)
			}
		}
		// The mediator talks to its three links in a fixed order, so the
		// interleaving is part of the view.
		if len(views[0]) == 0 || fmt.Sprint(views[0]) != fmt.Sprint(views[1]) {
			t.Errorf("IDMode %v: mediator views differ:\n%v\n%v", idMode, views[0], views[1])
		}
	}
}
