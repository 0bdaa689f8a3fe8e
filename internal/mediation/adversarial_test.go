package mediation

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
)

// flipLastByte returns b with its last byte flipped. On a sealed blob
// that byte lies in the AEAD tag.
func flipLastByte(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)-1] ^= 0xFF
	return out
}

// assertTamperRejected checks that a query whose sealed blob the
// mediator corrupted failed where the client opens the blob: the mediator
// re-seals the frame digest, so the query must not end in
// transport.ErrIntegrity.
func assertTamperRejected(t *testing.T, what string, err error) {
	t.Helper()
	switch {
	case err == nil:
		t.Errorf("tampered %s accepted", what)
	case errors.Is(err, transport.ErrIntegrity):
		t.Errorf("tampered %s failed the frame digest, not its own check: %v", what, err)
	case !strings.Contains(err.Error(), "message authentication failed"):
		t.Errorf("tampered %s failed outside its AEAD: %v", what, err)
	}
}

// Tampered protocol results must fail loudly at the client when it opens
// them, never silently return wrong data. Each case flips a byte of one
// sealed blob in the result the mediator sends.
func TestTamperedResultsAreRejected(t *testing.T) {
	cases := []struct {
		proto  Protocol
		tamper hook
	}{
		{ProtocolMobileCode, rewrite(t, "client", msgMCResult, func(r *mcResult) {
			r.Partials[0].Rows[0] = flipLastByte(r.Partials[0].Rows[0])
		})},
		{ProtocolDAS, rewrite(t, "client", msgDASResult, func(r *dasResult) { r.E1[0] = flipLastByte(r.E1[0]) })},
		{ProtocolCommutative, rewrite(t, "client", msgCommResult, func(r *commResult) {
			r.Pairs[0].T1 = flipLastByte(r.Pairs[0].T1)
		})},
	}
	for _, tc := range cases {
		_, _, err := tap{onSend: tc.tamper}.query(t, newTestNetwork(t, nil), fixtureSQL, tc.proto, fastParams())
		assertTamperRejected(t, tc.proto.String()+" result", err)
	}
}

// Tampering with the DAS index tables must be detected when the client
// opens them (they are sealed with AEAD under the session key).
func TestTamperedIndexTablesRejected(t *testing.T) {
	_, _, err := tap{onSend: rewrite(t, "client", msgDASIndexTables, func(its *dasIndexTables) {
		its.Enc1 = flipLastByte(its.Enc1)
	})}.query(t, newTestNetwork(t, nil), fixtureSQL, ProtocolDAS, fastParams())
	assertTamperRejected(t, "index tables", err)
}

// A PM evaluation corrupted by the mediator decrypts to garbage; the
// codec's integrity tag rejects it, so the corresponding match silently
// disappears rather than producing a wrong tuple. This is the documented
// semi-honest limitation: corruption is equivalent to withholding.
func TestTamperedPMEvaluationDropsMatchOnly(t *testing.T) {
	res, _, err := tap{onSend: rewrite(t, "client", msgPMResult, func(r *pmResult) {
		r.Evals1[0].Sealed = flipLastByte(r.Evals1[0].Sealed)
	})}.query(t, newTestNetwork(t, nil), fixtureSQL, ProtocolPM, fastParams())
	// A hard failure is also acceptable; both outcomes must avoid wrong
	// results, and neither may come from the re-sealed frame digest.
	if errors.Is(err, transport.ErrIntegrity) {
		t.Errorf("tampered evaluation failed the frame digest, not its own check: %v", err)
	}
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
// parties bounded them, a huge Partitions crashed the source, as a huge
// bucket count did before each PM source derived its own
// (TestHostilePMCross checks what a source accepts in its place). A
// non-zero Strategy is never sent, so only the client sees it.
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
		{"unknown strategy", ProtocolDAS, func(p *Params) { p.Strategy = 1 }, "strategy", true},
		{"negative timeout", ProtocolCommutative, func(p *Params) { p.Timeout = -time.Second }, "timeout", false},
		{"negative attempt", ProtocolCommutative, func(p *Params) { p.Attempt = -1 }, "attempt", false},
		{"query ID of 65 bytes", ProtocolCommutative, func(p *Params) { p.QueryID = strings.Repeat("q", maxQueryIDLen+1) }, "query ID", false},
	}
	for _, tc := range cases {
		tc := tc
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
				// The mediator rewrites the Params of the one message that
				// carries them on a link: the request on the client link, the
				// partial query on every source link.
				var tp tap
				switch party {
				case "mediator":
					tp.onRecv = rewrite(t, "client", msgRequest, func(req *Request) { tc.mutate(&req.Params) })
				case "source:S1":
					tp.onSend = rewrite(t, "", msgPartialQuery, func(pq *PartialQuery) { tc.mutate(&pq.Params) })
				}
				var srcErrs map[string]error
				err := testutil.WithinDeadline(t, 10*time.Second, func() error {
					var err error
					_, srcErrs, err = tp.query(t, n, fixtureSQL, tc.proto, params)
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
					// query holds an error, nil or not, for each source dialed.
					if len(srcErrs) != 0 {
						t.Errorf("sources dialed before the %s rejected the query: %v", party, srcErrs)
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
// the join condition it decomposes must not make the client read one
// column's values as another's. A tuple set carries
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
				edit := chain(
					rewrite(t, run.link, msgDASPartial, func(p *dasPartial) { rw.edit(&p.Schema) }),
					rewrite(t, run.link, msgCommOffer, func(o *commOffer) { rw.edit(&o.Schema) }),
					rewrite(t, run.link, msgPMCoeffs, func(c *pmCoeffs) { rw.edit(&c.Schema) }),
					rewrite(t, run.link, msgMCPartial, func(p *mcPartial) { rw.edit(&p.Schema) }),
				)
				got, _, err := tap{onRecv: edit}.query(t, run.net(t), run.sql, run.proto, fastParams())
				checkRewriteOutcome(t, want, got, err, run.dropped)
			})
		}
	}
	// No client joins on an A_i the mediator relays: each resolves it
	// from its own query over the AAD-bound schemas. A mediator that
	// decomposes the request with its ON clause rewritten asks the
	// sources for R2.m as A_2. Over two INT columns whose values overlap,
	// a client that joined on the mediator's A_i would return tuples
	// outside the join without an error. DAS aborts, as the indexed
	// columns relayed for R2 no longer begin with A_2; mobile code joins
	// on id; the commutative and PM sets bind their key positions in the
	// AAD, so they fail to open: commutative aborts and PM withholds.
	// The source-joincols rows hand source R2 the other column directly,
	// on the partial query, with the same outcome.
	ints := func(name, other string, rows ...[2]int64) *rel.Relation {
		r := rel.New(rel.MustSchema(name, rel.Column{Name: "id", Kind: rel.KindInt}, rel.Column{Name: other, Kind: rel.KindInt}))
		for _, row := range rows {
			r.MustAppend(rel.Tuple{rel.Int(row[0]), rel.Int(row[1])})
		}
		return r
	}
	i1 := ints("R1", "n", [2]int64{1, 10}, [2]int64{1, 11}, [2]int64{2, 20})
	i2 := ints("R2", "m", [2]int64{1, 2}, [2]int64{1, 1}, [2]int64{2, 1}, [2]int64{2, 2})
	onM := rewrite(t, "client", msgRequest, func(r *Request) { r.SQL = "SELECT * FROM R1 JOIN R2 ON R1.id = R2.m" })
	sourceM := rewrite(t, "source:R2", msgPartialQuery, func(pq *PartialQuery) { pq.JoinCols = []string{"m"} })
	for _, run := range []struct {
		name    string
		proto   Protocol
		dropped bool
		ignored bool // the client never reads the rewritten clause: the exact join
	}{
		{"das", ProtocolDAS, false, false},
		{"mobile-code", ProtocolMobileCode, false, true},
		{"commutative", ProtocolCommutative, false, false},
		{"pm", ProtocolPM, true, false},
	} {
		run := run
		want, err := networkOver(t, nil, i1, i2).Query(fixtureSQL, run.proto, fastParams())
		if err != nil || want.Len() != 6 {
			t.Fatalf("%s: untampered query: %v, %v", run.name, want, err)
		}
		t.Run(run.name+"/joincols", func(t *testing.T) {
			got, _, err := tap{onRecv: onM}.query(t, networkOver(t, nil, i1, i2), fixtureSQL, run.proto, fastParams())
			if run.ignored {
				if err != nil || !got.EqualMultiset(want) {
					t.Fatalf("query under a rewritten join condition returned %v, %v; want the join", got, err)
				}
				return
			}
			checkRewriteOutcome(t, want, got, err, run.dropped)
		})
		if run.proto == ProtocolCommutative || run.proto == ProtocolPM {
			t.Run(run.name+"/source-joincols", func(t *testing.T) {
				got, _, err := tap{onSend: sourceM}.query(t, networkOver(t, nil, i1, i2), fixtureSQL, run.proto, fastParams())
				checkRewriteOutcome(t, want, got, err, run.dropped)
			})
		}
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
