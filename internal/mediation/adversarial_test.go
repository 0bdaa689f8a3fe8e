package mediation

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
)

// tamperConn is a man-in-the-middle wrapper: it mutates the body of every
// received message whose type matches, modeling a mediator (or network
// adversary) that deviates from the semi-honest model by modifying
// ciphertext material.
type tamperConn struct {
	transport.Conn
	typePrefix string
	mutate     func([]byte)
}

func (c *tamperConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	if strings.HasPrefix(m.Type, c.typePrefix) && len(m.Body) > 0 {
		body := append([]byte(nil), m.Body...)
		c.mutate(body)
		m.Body = body
	}
	return m, nil
}

// queryOver runs one query over n with the client's end of the
// client–mediator link wrapped by wrap.
func queryOver(t *testing.T, n *Network, wrap func(transport.Conn) transport.Conn, sql string, proto Protocol, params Params) (*rel.Relation, error) {
	t.Helper()
	clientSide, mediatorSide := transport.Pair()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = n.Mediator.HandleSession(mediatorSide)
		mediatorSide.Close()
	}()
	res, err := n.Client.Query(wrap(clientSide), sql, proto, params)
	// Close before waiting: an early client abort must unblock a mediator
	// still awaiting client messages.
	clientSide.Close()
	<-done
	return res, err
}

// queryThroughTamperer runs one query with the client's inbound messages
// of the given type corrupted.
func queryThroughTamperer(t *testing.T, proto Protocol, typePrefix string, mutate func([]byte)) error {
	t.Helper()
	_, err := queryOver(t, newTestNetwork(t, nil), func(c transport.Conn) transport.Conn {
		return &tamperConn{Conn: c, typePrefix: typePrefix, mutate: mutate}
	}, fixtureSQL, proto, fastParams())
	return err
}

// flipLastByte corrupts the tail of a message body — in every protocol
// result the tail lands inside ciphertext or integrity-protected material.
func flipLastByte(b []byte) { b[len(b)-1] ^= 0xFF }

// Tampered protocol results must fail loudly at the client (AEAD or
// decode), never silently return wrong data.
func TestTamperedResultsAreRejected(t *testing.T) {
	cases := []struct {
		proto  Protocol
		prefix string
	}{
		{ProtocolMobileCode, "mc.result"},
		{ProtocolDAS, "das.result"},
		{ProtocolCommutative, "comm.result"},
	}
	for _, tc := range cases {
		err := queryThroughTamperer(t, tc.proto, tc.prefix, flipLastByte)
		if err == nil {
			t.Errorf("%v: tampered %s accepted", tc.proto, tc.prefix)
		}
	}
}

// Tampering with the DAS index tables must be detected when the client
// opens them (they are sealed with AEAD under the session key).
func TestTamperedIndexTablesRejected(t *testing.T) {
	err := queryThroughTamperer(t, ProtocolDAS, "das.index-tables", flipLastByte)
	if err == nil {
		t.Error("tampered index tables accepted")
	}
}

// A PM evaluation corrupted by the mediator decrypts to garbage; the
// codec's integrity tag rejects it, so the corresponding match silently
// disappears rather than producing a wrong tuple. This is the documented
// semi-honest limitation: corruption is equivalent to withholding.
func TestTamperedPMEvaluationDropsMatchOnly(t *testing.T) {
	n := newTestNetwork(t, nil)
	clientSide, mediatorSide := transport.Pair()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = n.Mediator.HandleSession(mediatorSide)
		mediatorSide.Close()
	}()
	// Corrupting the body fails its digest → hard failure, which is also
	// acceptable; both outcomes must avoid wrong results.
	wrapped := &tamperConn{Conn: clientSide, typePrefix: "pm.result", mutate: flipLastByte}
	res, err := n.Client.Query(wrapped, fixtureSQL, ProtocolPM, fastParams())
	clientSide.Close()
	<-done
	if err == nil {
		// If decoding survived, the result must be a subset of the truth.
		want := expectedJoin(t)
		if res.Len() > want.Len() {
			t.Errorf("tampered PM result has %d tuples, truth has %d", res.Len(), want.Len())
		}
	}
}

// A wholly fabricated message type must abort the protocol.
func TestUnexpectedMessageTypeAborts(t *testing.T) {
	n := newTestNetwork(t, nil)
	clientSide, mediatorSide := transport.Pair()
	defer clientSide.Close()
	go func() {
		// A rogue "mediator" that answers with junk.
		if _, err := mediatorSide.Recv(); err == nil {
			_ = mediatorSide.Send(transport.Message{Type: "rogue.garbage", Body: []byte{1, 2, 3}})
		}
		mediatorSide.Close()
	}()
	if _, err := n.Client.Query(clientSide, fixtureSQL, ProtocolCommutative, fastParams()); err == nil {
		t.Error("rogue message type accepted")
	}
}

// An expired credential must be rejected by the sources even though its
// signature is valid.
func TestExpiredCredentialDenied(t *testing.T) {
	f := getFixture(t)
	n := newTestNetwork(t, nil)
	// Shift every source's clock far into the future.
	for _, src := range n.Sources {
		src.Now = func() time.Time { return time.Now().AddDate(1, 0, 0) }
	}
	_, err := n.Query(fixtureSQL, ProtocolCommutative, fastParams())
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Errorf("expired credential error = %v", err)
	}
	_ = f
}

// Params no party may run with end the query in a terminal
// *ProtocolError from the first party that decodes them: the client when
// it chose them, the mediator when they reach it rewritten on the client
// link, a source when the mediator rewrites a partial query. Before the
// parties bounded them, the huge Partitions and Buckets rows crashed the
// source. A non-zero Strategy is never sent, so only the client sees it.
func TestHostileParams(t *testing.T) {
	cases := []struct {
		name       string
		proto      Protocol
		mutate     func(*Params)
		msg        string
		clientOnly bool
	}{
		{"partitions 2^50", ProtocolDAS, func(p *Params) { p.Partitions = 1 << 50 }, "partition count", false},
		{"partitions 2^16+1", ProtocolDAS, func(p *Params) { p.Partitions = maxPartitions + 1 }, "partition count", false},
		{"partitions -1", ProtocolDAS, func(p *Params) { p.Partitions = -1 }, "partition count", false},
		{"buckets 2^50", ProtocolPM, func(p *Params) { p.Buckets = 1 << 50 }, "bucket count", false},
		{"buckets 2^12+1", ProtocolPM, func(p *Params) { p.Buckets = maxBuckets + 1 }, "bucket count", false},
		{"unknown strategy", ProtocolDAS, func(p *Params) { p.Strategy = 1 }, "strategy", true},
		{"negative timeout", ProtocolCommutative, func(p *Params) { p.Timeout = -time.Second }, "timeout", false},
		{"negative attempt", ProtocolCommutative, func(p *Params) { p.Attempt = -1 }, "attempt", false},
		{"query ID of 65 bytes", ProtocolCommutative, func(p *Params) { p.QueryID = strings.Repeat("q", maxQueryIDLen+1) }, "query ID", false},
	}
	for _, tc := range cases {
		tc := tc
		// tamper rewrites the Params of the one message that carries them
		// on a link: the request on the client link, the partial query on
		// a source link.
		tamper := func(m transport.Message) transport.Message {
			var v any
			switch m.Type {
			case msgRequest:
				var req Request
				decodeBody(t, m, &req)
				tc.mutate(&req.Params)
				v = req
			case msgPartialQuery:
				var pq PartialQuery
				decodeBody(t, m, &pq)
				tc.mutate(&pq.Params)
				v = pq
			default:
				return m
			}
			out, err := transport.NewMessage(m.Type, v)
			if err != nil {
				t.Errorf("re-encoding %s: %v", m.Type, err)
			}
			return out
		}
		for _, party := range []string{"client", "mediator", "source:S1"} {
			party := party
			if tc.clientOnly && party != "client" {
				continue
			}
			t.Run(tc.name+"/"+party, func(t *testing.T) {
				defer testutil.CheckGoroutines(t, testutil.Snapshot())
				n := newTestNetwork(t, nil)
				params := fastParams()
				if party == "client" {
					tc.mutate(&params)
				}
				var mu sync.Mutex
				var dialed []string
				var srcErrs map[string]error
				err := testutil.WithinDeadline(t, 10*time.Second, func() error {
					var err error
					_, srcErrs, err = queryAtMediator(t, n, func(link string, c transport.Conn) transport.Conn {
						switch {
						case link == "client" && party == "mediator":
							return &mediatorLinkConn{Conn: c, onRecv: tamper}
						case link != "client":
							mu.Lock()
							dialed = append(dialed, link)
							mu.Unlock()
							if party == "source:S1" {
								return &mediatorLinkConn{Conn: c, onSend: tamper}
							}
						}
						return c
					}, fixtureSQL, tc.proto, params)
					return err
				})
				var pe *ProtocolError
				if !errors.As(err, &pe) || pe.Party != party || !strings.Contains(pe.Error(), tc.msg) {
					t.Fatalf("query error = %v, want a *ProtocolError from %s about the %s", err, party, tc.msg)
				}
				if resilience.Retryable(err) {
					t.Errorf("hostile Params error is retryable: %v", err)
				}
				if party != "source:S1" {
					if len(dialed) != 0 {
						t.Errorf("sources dialed before the %s rejected the query: %v", party, dialed)
					}
					return
				}
				// Both sources get a rewritten partial query; each rejects it.
				for _, src := range []string{"S1", "S2"} {
					if !errors.As(srcErrs[src], &pe) || pe.Party != "source:"+src {
						t.Errorf("%s returned %v, want its own *ProtocolError", src, srcErrs[src])
					}
				}
			})
		}
	}
}

// A mediator that rewrites the schema it relays — two same-kind columns
// renamed into each other's place, or an INT column retyped FLOAT — or
// the join columns of a commutative or PM result must not make the
// client read one column's values as another's. A tuple set carries
// neither names, kinds nor key positions, so every sealed set binds them
// in its AAD: DAS, commutative and mobile code abort with a
// *ProtocolError, and under PM a set that does not open is a non-match,
// so the rewrite can only withhold tuples.
func TestRelayedSchemaRewriteRejected(t *testing.T) {
	s1 := rel.MustSchema("R1", rel.Column{Name: "id", Kind: rel.KindInt}, rel.Column{Name: "name", Kind: rel.KindString})
	s2 := rel.MustSchema("R2", rel.Column{Name: "id", Kind: rel.KindInt}, rel.Column{Name: "city", Kind: rel.KindString},
		rel.Column{Name: "illness", Kind: rel.KindString}, rel.Column{Name: "age", Kind: rel.KindInt})
	r1 := rel.MustFromTuples(s1, rel.Tuple{rel.Int(1), rel.String_("ada")}, rel.Tuple{rel.Int(2), rel.String_("bob")})
	r2 := rel.MustFromTuples(s2,
		rel.Tuple{rel.Int(1), rel.String_("bonn"), rel.String_("flu"), rel.Int(41)},
		rel.Tuple{rel.Int(2), rel.String_("kiel"), rel.String_("cold"), rel.Int(37)})
	const joinSQL = "SELECT R1.name, R2.city, R2.age FROM R1 JOIN R2 ON R1.id = R2.id"
	union := rel.MustSchema("A", rel.Column{Name: "k", Kind: rel.KindInt}, rel.Column{Name: "x", Kind: rel.KindString},
		rel.Column{Name: "y", Kind: rel.KindString}, rel.Column{Name: "n", Kind: rel.KindInt})
	a := rel.MustFromTuples(union, rel.Tuple{rel.Int(1), rel.String_("p"), rel.String_("q"), rel.Int(5)})
	b := rel.MustFromTuples(union.Rename("B"), rel.Tuple{rel.Int(2), rel.String_("r"), rel.String_("s"), rel.Int(6)})
	unionNet := func(t *testing.T) *Network {
		f := getFixture(t)
		src := func(name, relName string, r *rel.Relation) *Source {
			return &Source{Name: name, Catalog: algebra.MapCatalog{relName: r},
				Policies: map[string]*credential.Policy{relName: policyFor(relName)}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
		}
		n, err := NewNetwork(f.client, &Mediator{}, src("SA", "A", a), src("SB", "B", b))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Each rewrite acts on the second relation's schema: its columns 1
	// and 2 are TEXT, its column 3 is an INT.
	rewrites := []struct {
		name string
		edit func(*rel.Schema)
	}{
		{"swap", func(s *rel.Schema) { s.Columns[1].Name, s.Columns[2].Name = s.Columns[2].Name, s.Columns[1].Name }},
		{"retype", func(s *rel.Schema) { s.Columns[3].Kind = rel.KindFloat }},
	}
	runs := []struct {
		name    string
		net     func(*testing.T) *Network
		link    string
		sql     string
		proto   Protocol
		dropped bool // a rewrite may drop tuples instead of aborting
	}{
		{"das", func(t *testing.T) *Network { return networkOver(t, nil, r1, r2) }, "source:R2", joinSQL, ProtocolDAS, false},
		{"commutative", func(t *testing.T) *Network { return networkOver(t, nil, r1, r2) }, "source:R2", joinSQL, ProtocolCommutative, false},
		{"pm", func(t *testing.T) *Network { return networkOver(t, nil, r1, r2) }, "source:R2", joinSQL, ProtocolPM, true},
		{"mobile-code", func(t *testing.T) *Network { return networkOver(t, nil, r1, r2) }, "source:R2", joinSQL, ProtocolMobileCode, false},
		{"mobile-code-union", unionNet, "source:B", "SELECT * FROM A UNION ALL SELECT * FROM B", ProtocolMobileCode, false},
	}
	for _, run := range runs {
		for _, rw := range rewrites {
			run, rw := run, rw
			t.Run(run.name+"/"+rw.name, func(t *testing.T) {
				want, err := run.net(t).Query(run.sql, run.proto, fastParams())
				if err != nil {
					t.Fatalf("untampered query: %v", err)
				}
				// The mediator rewrites the schema of the one message
				// that brings it from the source.
				rewrite := func(m transport.Message) transport.Message {
					var v any
					switch m.Type {
					case msgDASPartial:
						var p dasPartial
						decodeBody(t, m, &p)
						rw.edit(&p.Schema)
						v = p
					case msgCommOffer:
						var o commOffer
						decodeBody(t, m, &o)
						rw.edit(&o.Schema)
						v = o
					case msgPMCoeffs:
						var c pmCoeffs
						decodeBody(t, m, &c)
						rw.edit(&c.Schema)
						v = c
					case msgMCPartial:
						var p mcPartial
						decodeBody(t, m, &p)
						rw.edit(&p.Schema)
						v = p
					default:
						return m
					}
					out, err := transport.NewMessage(m.Type, v)
					if err != nil {
						t.Errorf("re-encoding %s: %v", m.Type, err)
					}
					return out
				}
				got, _, err := queryAtMediator(t, run.net(t), func(link string, c transport.Conn) transport.Conn {
					if link == run.link {
						return &mediatorLinkConn{Conn: c, onRecv: rewrite}
					}
					return c
				}, run.sql, run.proto, fastParams())
				checkRewriteOutcome(t, want, got, err, run.dropped)
			})
		}
	}
	// The client derives a tuple set's fixed columns from the JoinCols the
	// mediator relays in comm.result and pm.result. Over two INT columns
	// a rewrite from id to the other column would decode the key and that
	// column swapped, silently; the key positions are bound in the AAD,
	// so the sets fail to open instead.
	ints := func(name, other string, rows ...[2]int64) *rel.Relation {
		r := rel.New(rel.MustSchema(name, rel.Column{Name: "id", Kind: rel.KindInt}, rel.Column{Name: other, Kind: rel.KindInt}))
		for _, row := range rows {
			r.MustAppend(rel.Tuple{rel.Int(row[0]), rel.Int(row[1])})
		}
		return r
	}
	i1 := ints("R1", "n", [2]int64{1, 10}, [2]int64{1, 11}, [2]int64{2, 20})
	i2 := ints("R2", "m", [2]int64{1, 100}, [2]int64{1, 101}, [2]int64{2, 200}, [2]int64{2, 201})
	for _, run := range []struct {
		name    string
		proto   Protocol
		dropped bool
	}{
		{"commutative", ProtocolCommutative, false},
		{"pm", ProtocolPM, true},
	} {
		run := run
		t.Run(run.name+"/joincols", func(t *testing.T) {
			want, err := networkOver(t, nil, i1, i2).Query(fixtureSQL, run.proto, fastParams())
			if err != nil || want.Len() != 6 {
				t.Fatalf("untampered query: %v, %v", want, err)
			}
			got, _, err := queryAtMediator(t, networkOver(t, nil, i1, i2), func(link string, c transport.Conn) transport.Conn {
				if link != "client" {
					return c
				}
				return &mediatorLinkConn{Conn: c, onSend: func(m transport.Message) transport.Message {
					return rewriteJoinCols(t, m, func(_, cols2 *[]string) { *cols2 = []string{"m"} })
				}}
			}, fixtureSQL, run.proto, fastParams())
			checkRewriteOutcome(t, want, got, err, run.dropped)
		})
	}
}

// checkRewriteOutcome accepts a query under a rewritten relay that ended
// in a *ProtocolError, or, where dropped allows it, returned only true
// tuples.
func checkRewriteOutcome(t *testing.T, want, got *rel.Relation, err error, dropped bool) {
	t.Helper()
	var pe *ProtocolError
	if err != nil && errors.As(err, &pe) {
		t.Logf("aborted: %v", err)
		return
	}
	if err != nil || !dropped {
		t.Fatalf("query under a rewritten relay returned %v, %v; want a *ProtocolError", got, err)
	}
	// Withholding only: every tuple returned is a true one.
	truth := map[string]bool{}
	for _, tu := range want.Tuples() {
		truth[fmt.Sprint(tu)] = true
	}
	for _, tu := range got.Tuples() {
		if !truth[fmt.Sprint(tu)] {
			t.Errorf("query under a rewritten relay returned the wrong tuple %v (truth %v)", tu, want.Tuples())
		}
	}
}
