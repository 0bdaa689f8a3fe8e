package mediation

import (
	"bytes"
	"crypto/ecdh"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/pm"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// freshPoint is a valid compressed P-256 point nobody signed.
func freshPoint(t testing.TB) []byte {
	t.Helper()
	k, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return hybrid.CompressPoint(k.PublicKey())
}

// queryPublic is the query key that a request's root and counter
// derive: the public computation every source, and the mediator too, can
// make.
func queryPublic(t *testing.T, root []byte, c uint64) *ecdh.PublicKey {
	t.Helper()
	x, err := hybrid.ParsePoint(root)
	if err != nil {
		t.Fatal(err)
	}
	k, err := hybrid.DeriveQueryPublic(x, c)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

var (
	thiefOnce sync.Once
	thiefKey  *rsa.PrivateKey
)

// thief is an RSA key no credential names.
func thief(t *testing.T) *rsa.PrivateKey {
	t.Helper()
	thiefOnce.Do(func() {
		var err error
		if thiefKey, err = rsa.GenerateKey(rand.Reader, 2048); err != nil {
			panic(err)
		}
	})
	return thiefKey
}

// keyShape is one query shape that carries a signed query key.
type keyShape struct {
	name  string
	net   func() *Network
	sql   string
	proto Protocol
}

// queryKeyShapes are the four secure joins, a union and an aggregate.
func queryKeyShapes(t *testing.T) []keyShape {
	r1, r2 := testRelations(t)
	join := func() *Network { return networkOver(t, nil, r1, r2) }
	return []keyShape{
		{"das", join, fixtureSQL, ProtocolDAS},
		{"commutative", join, fixtureSQL, ProtocolCommutative},
		{"pm", join, fixtureSQL, ProtocolPM},
		{"mobilecode", join, fixtureSQL, ProtocolMobileCode},
		{"union", func() *Network { return networkOver(t, nil, r1, r1.Rename("R2")) },
			"SELECT * FROM R1 UNION ALL SELECT * FROM R2", ProtocolCommutative},
		{"aggregate", func() *Network { return aggNetwork(t, nil) }, "SELECT SUM(units) FROM Claims", ProtocolDAS},
	}
}

// The query key a source encrypts to is the one the credential's holder
// signed: a key rewritten on the client link, and a copied credential
// used with a key signed by another RSA key, are both denied by every
// source before it sends any delivery-phase message.
func TestQueryKeyBoundToCredential(t *testing.T) {
	for _, sh := range queryKeyShapes(t) {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			want, err := sh.net().Query(sh.sql, ProtocolPlaintext, fastParams())
			if err != nil {
				t.Fatal(err)
			}
			got, srcErrs, err := tap{}.query(t, sh.net(), sh.sql, sh.proto, fastParams())
			if err != nil || !got.EqualMultiset(want) {
				t.Fatalf("honest query: %v\n%v\nwant\n%v", err, got, want)
			}
			for src, serr := range srcErrs {
				if serr != nil {
					t.Errorf("honest query: source %s: %v", src, serr)
				}
			}

			denied := map[string]func(*testing.T) (*Network, hook){
				"rewritten key": func(t *testing.T) (*Network, hook) {
					return sh.net(), rewrite(t, "client", msgRequest, func(r *Request) { r.QueryKey = freshPoint(t) })
				},
				"copied credential": func(t *testing.T) (*Network, hook) {
					n := sh.net()
					n.Client = &Client{PrivateKey: thief(t), Credentials: n.Client.Credentials}
					return n, nil
				},
			}
			for name, setup := range denied {
				t.Run(name, func(t *testing.T) {
					n, onRecv := setup(t)
					var tr transcript
					_, srcErrs, err := tap{onRecv: onRecv, log: &tr}.query(t, n, sh.sql, sh.proto, fastParams())
					assertKeyDenied(t, err, srcErrs, &tr, len(n.Sources), "not signed by the credential's client key")
				})
			}
		})
	}
}

// assertKeyDenied checks that the client got the mediator's denial and
// that each of the wantSources sources denied the query with reason and
// sent nothing after its ack.
func assertKeyDenied(t *testing.T, err error, srcErrs map[string]error, tr *transcript, wantSources int, reason string) {
	t.Helper()
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Party != leakage.PartyMediator || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err = %v, want the mediator's denial", err)
	}
	for src, serr := range srcErrs {
		if serr != nil {
			t.Errorf("source %s failed instead of denying: %v", src, serr)
		}
	}
	grants := map[string][]PartialAck{}
	for _, f := range tr.on("") {
		if f.Type == msgPartialAck {
			var ack PartialAck
			decodeBody(t, f.Message, &ack)
			grants[f.link] = append(grants[f.link], ack)
		}
	}
	if len(grants) != wantSources {
		t.Errorf("%d sources answered, want %d", len(grants), wantSources)
	}
	for link, acks := range grants {
		if len(acks) != 1 || acks[0].Granted || !strings.Contains(acks[0].Reason, reason) {
			t.Errorf("%s: acks %+v, want one denial for %q", link, acks, reason)
		}
		for _, f := range tr.on(link) {
			if f.dir == "recv" && f.Type != msgPartialAck {
				t.Errorf("%s: source sent %s after denying", link, f.Type)
			}
		}
	}
}

// A malformed query key that carries a valid signature is refused by each
// source before any scalar multiplication.
func TestMalformedQueryKeyDenied(t *testing.T) {
	f := getFixture(t)
	offCurve := make([]byte, hybrid.PointSize)
	offCurve[0], offCurve[hybrid.PointSize-1] = 2, 1
	for _, proto := range []Protocol{ProtocolDAS, ProtocolCommutative, ProtocolPM, ProtocolMobileCode} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			var tr transcript
			_, srcErrs, err := tap{onRecv: rewrite(t, "client", msgRequest, func(r *Request) {
				r.QueryKey = offCurve
				sig, err := signQueryRoot(f.client.PrivateKey, r.QueryKey)
				if err != nil {
					t.Error(err)
				}
				r.QueryKeySig = sig
			}), log: &tr}.query(t, newTestNetwork(t, nil), fixtureSQL, proto, fastParams())
			assertKeyDenied(t, err, srcErrs, &tr, 2, "malformed query key")
			if ops := reg.OpDeltas(); ops["hybrid.wrap"] != 0 || ops["commutative.exp"] != 0 {
				t.Errorf("sources multiplied before refusing: hybrid.wrap %d, commutative.exp %d", ops["hybrid.wrap"], ops["commutative.exp"])
			}
		})
	}
}

// A source's session share reaches the client through the mediator. Any
// value that is not a compressed P-256 point ends the query in a terminal
// *ProtocolError at the client, in the phase that builds the receivers,
// which blames the mediator that relayed it, and every party unwinds. One
// that is not 33 bytes long does not decode, with the same blame.
func TestHostileKeyShare(t *testing.T) {
	// A fixed point, not a fresh one: a random 65-byte splice can leave
	// a frame that decodes by chance, which moves the check to the
	// client. The hook below asserts that no splice decodes.
	uncompressed, err := ecdh.P256().NewPrivateKey(bytes.Repeat([]byte{1}, 32))
	if err != nil {
		t.Fatal(err)
	}
	xTooBig := append([]byte{2}, bytes.Repeat([]byte{0xFF}, hybrid.PointSize-1)...)
	noPoint := make([]byte, hybrid.PointSize)
	noPoint[0], noPoint[hybrid.PointSize-1] = 2, 1 // x = 1: 1 − 3 + b is not a square mod p
	if x, _ := elliptic.UnmarshalCompressed(elliptic.P256(), noPoint); x != nil {
		t.Fatal("fixture: x = 1 has a point")
	}
	shares := map[string][]byte{
		"32 bytes":         make([]byte, 32),
		"34 bytes":         make([]byte, 34),
		"uncompressed 65B": uncompressed.PublicKey().Bytes(),
		"x >= p":           xTooBig,
		"x off curve":      noPoint,
	}
	protos := []struct {
		proto Protocol
		msg   string
		// edit decodes m and returns the setter of its share field.
		edit func(t *testing.T, m transport.Message) func(share []byte) codec.Encodable
	}{
		{ProtocolDAS, msgDASIndexTables, func(t *testing.T, m transport.Message) func([]byte) codec.Encodable {
			var its dasIndexTables
			decodeBody(t, m, &its)
			return func(share []byte) codec.Encodable { its.Share1 = share; return its }
		}},
		{ProtocolCommutative, msgCommResult, func(t *testing.T, m transport.Message) func([]byte) codec.Encodable {
			var res commResult
			decodeBody(t, m, &res)
			return func(share []byte) codec.Encodable { res.Share2 = share; return res }
		}},
		{ProtocolMobileCode, msgMCResult, func(t *testing.T, m transport.Message) func([]byte) codec.Encodable {
			var res mcResult
			decodeBody(t, m, &res)
			return func(share []byte) codec.Encodable { res.Partials[0].KeyShare = share; return res }
		}},
	}
	for _, p := range protos {
		p := p
		for name, bad := range shares {
			bad := bad
			t.Run(p.proto.String()+"/"+name, func(t *testing.T) {
				_, _, err := tap{onSend: func(link string, m transport.Message) transport.Message {
					if link != "client" || m.Type != p.msg {
						return m
					}
					out := hostileFrame(t, m.Type, hybrid.PointSize, bad, p.edit(t, m))
					if len(bad) != hybrid.PointSize {
						payload, err := transport.Payload(out)
						if err == nil && codec.Unmarshal(payload, messageDecoders[decoderFor(t, m.Type)].new()) == nil {
							t.Errorf("the %d-byte splice decodes as %s", len(bad), m.Type)
						}
					}
					return out
				}}.query(t, newTestNetwork(t, nil), fixtureSQL, p.proto, fastParams())
				var pe *ProtocolError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want a *ProtocolError", err)
				}
				if pe.Party != leakage.PartyMediator || pe.Phase != "" {
					t.Errorf("blamed %s/%s, want %s: %v", pe.Party, pe.Phase, leakage.PartyMediator, err)
				}
				if resilience.Retryable(err) {
					t.Errorf("hostile share classified retryable: %v", err)
				}
			})
		}
	}
}

// keyedClient is a fresh RSA key with a credential the fixture CA issued
// for it: its query root is cold.
func keyedClient(t *testing.T) (*rsa.PrivateKey, credential.Set) {
	t.Helper()
	c, err := NewClient()
	if err != nil {
		t.Fatal(err)
	}
	cred, err := getFixture(t).ca.Issue(&c.PrivateKey.PublicKey,
		[]credential.Property{{Name: "role", Value: "analyst"}}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return c.PrivateKey, credential.Set{cred}
}

// A key's query root is signed once and serves every query of its
// lifetime: concurrent queries on a cold root and sequential ones, each
// through its own Client value, make one signature between them. Another
// key signs its own root, and an expired root, or one out of counter
// values, is signed afresh.
func TestQueryRootSignedOncePerKey(t *testing.T) {
	const n = 8
	key, creds := keyedClient(t)
	// network is built on the test's goroutine: networkOver sets the
	// shared fixture client's ledger.
	network := func(key *rsa.PrivateKey, creds credential.Set) *Network {
		net := newTestNetwork(t, nil)
		net.Client = &Client{PrivateKey: key, Credentials: creds}
		return net
	}
	want := expectedJoin(t)
	run := func(net *Network) {
		got, err := net.Query(fixtureSQL, ProtocolDAS, fastParams())
		if err != nil || !got.EqualMultiset(want) {
			t.Errorf("query: %v\n%v", err, got)
		}
	}
	query := func(key *rsa.PrivateKey, creds credential.Set) { run(network(key, creds)) }
	signed := func(t *testing.T, count int64, do func()) {
		t.Helper()
		before := rootSignatures.Load()
		do()
		if got := rootSignatures.Load() - before; got != count {
			t.Errorf("%d root signatures, want %d", got, count)
		}
	}
	signed(t, 1, func() {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			net := network(key, creds)
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(net)
			}()
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			query(key, creds)
		}
	})
	signed(t, 1, func() {
		key2, creds2 := keyedClient(t)
		query(key2, creds2)
		query(key2, creds2)
	})
	signed(t, 1, func() {
		defer func(clock func() time.Time) { rootClock = clock }(rootClock)
		rootClock = func() time.Time { return time.Now().Add(rootLifetime) }
		query(key, creds)
		query(key, creds)
	})
	signed(t, 1, func() {
		slot := slotFor(key)
		slot.mu.Lock()
		slot.root.next = rootCounterLimit
		slot.mu.Unlock()
		query(key, creds)
		query(key, creds)
	})
}

// rsaVerifications is the number of RSA-PSS verifications this process
// has made: the misses of credential.VerifyPSS's memo.
func rsaVerifications() int64 { return telemetry.OpTotals()["credential.rsa_verify"] }

// verifies checks that do makes count RSA-PSS verifications.
func verifies(t *testing.T, count int64, do func()) {
	t.Helper()
	before := rsaVerifications()
	do()
	if got := rsaVerifications() - before; got != count {
		t.Errorf("%d RSA-PSS verifications, want %d", got, count)
	}
}

// A source verifies each credential and each query root once: the first
// query under a root verifies both, later ones under it, sequential and
// concurrent, verify nothing, and a new root costs one verification. The
// sources of one process share the memo, so the counts are taken on a
// one-source network (an aggregate); the warm joins add nothing at
// either source.
func TestSourceVerifiesOncePerRoot(t *testing.T) {
	const n = 8
	key, creds := keyedClient(t)
	// Networks are built on the test's goroutine: networkOver sets the
	// shared fixture client's ledger.
	keyed := func(net *Network) *Network {
		net.Client = &Client{PrivateKey: key, Credentials: creds}
		return net
	}
	want := expectedJoin(t)
	join := func(net *Network) {
		got, err := net.Query(fixtureSQL, ProtocolDAS, fastParams())
		if err != nil || !got.EqualMultiset(want) {
			t.Errorf("join: %v\n%v", err, got)
		}
	}
	aggregate := func() {
		if _, err := keyed(aggNetwork(t, nil)).Query("SELECT SUM(units) FROM Claims", ProtocolDAS, fastParams()); err != nil {
			t.Errorf("aggregate: %v", err)
		}
	}
	verifies(t, 2, aggregate)
	verifies(t, 0, func() {
		aggregate()
		for i := 0; i < n; i++ {
			join(keyed(newTestNetwork(t, nil)))
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			net := keyed(newTestNetwork(t, nil))
			wg.Add(1)
			go func() {
				defer wg.Done()
				join(net)
			}()
		}
		wg.Wait()
	})
	verifies(t, 1, func() {
		defer func(clock func() time.Time) { rootClock = clock }(rootClock)
		rootClock = func() time.Time { return time.Now().Add(rootLifetime) }
		aggregate()
		aggregate()
	})
}

// A memoised verification stands for the signature check alone. After a
// credential and a root were verified and memoised, every source still
// denies the credential past its NotAfter, the credential under a CA key
// it does not trust, the root with one byte of its signature flipped, and
// the root that key A signed under key B's credential. The failures are
// not memoised: each source verifies them afresh.
func TestMemoisedVerificationStillDenies(t *testing.T) {
	keyA, credsA := keyedClient(t)
	keyB, credsB := keyedClient(t)
	network := func(key *rsa.PrivateKey, creds credential.Set) *Network {
		net := newTestNetwork(t, nil)
		net.Client = &Client{PrivateKey: key, Credentials: creds}
		return net
	}
	want := expectedJoin(t)
	// B's credential, then A's credential and A's root, are memoised.
	for _, net := range []*Network{network(keyB, credsB), network(keyA, credsA)} {
		if got, err := net.Query(fixtureSQL, ProtocolDAS, fastParams()); err != nil || !got.EqualMultiset(want) {
			t.Fatalf("honest query: %v\n%v", err, got)
		}
	}
	cases := []struct {
		name   string
		net    func() (*Network, hook)
		reason string
		count  int64
	}{
		{"expired credential", func() (*Network, hook) {
			net := network(keyA, credsA)
			for _, src := range net.Sources {
				src.Now = func() time.Time { return credsA[0].NotAfter.Add(time.Second) }
			}
			return net, nil
		}, "no verifiable credentials", 0},
		{"untrusted CA", func() (*Network, hook) {
			net := network(keyA, credsA)
			for _, src := range net.Sources {
				src.TrustedCAs = []*rsa.PublicKey{&thief(t).PublicKey}
			}
			return net, nil
		}, "no verifiable credentials", 2},
		{"flipped root signature", func() (*Network, hook) {
			return network(keyA, credsA), rewrite(t, "client", msgRequest, func(r *Request) {
				r.QueryKeySig = append([]byte(nil), r.QueryKeySig...)
				r.QueryKeySig[len(r.QueryKeySig)-1] ^= 1
			})
		}, "not signed by the credential's client key", 2},
		{"root of another key", func() (*Network, hook) {
			return network(keyA, credsB), nil
		}, "not signed by the credential's client key", 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net, onRecv := c.net()
			verifies(t, c.count, func() {
				var tr transcript
				_, srcErrs, err := tap{onRecv: onRecv, log: &tr}.query(t, net, fixtureSQL, ProtocolDAS, fastParams())
				assertKeyDenied(t, err, srcErrs, &tr, len(net.Sources), c.reason)
			})
		})
	}
}

// coldAuthorizations is the number of credentials and roots that
// BenchmarkSourceAuthorize/cold cycles through: more than the memo
// holds, so that each of them misses.
const coldAuthorizations = 1100

// BenchmarkSourceAuthorize is a source's authorization of one partial
// query: Policy.Check and verifyQueryKey. Warm repeats one credential and
// root, as every query of a root's lifetime after its first does; cold
// verifies a credential and a root it has not seen, as the first query
// of a process does.
func BenchmarkSourceAuthorize(b *testing.B) {
	f := getFixture(b)
	pol := policyFor("R1")
	trusted := []*rsa.PublicKey{f.ca.PublicKey()}
	// partial is a DAS partial query with one credential of the fixture
	// client and a root it signed.
	partial := func(cred *credential.Credential, root []byte) *PartialQuery {
		sig, err := signQueryRoot(f.client.PrivateKey, root)
		if err != nil {
			b.Fatal(err)
		}
		return &PartialQuery{Credentials: credential.Set{cred}, Protocol: ProtocolDAS,
			QueryKey: root, QueryKeySig: sig, QueryKeyIndex: 1}
	}
	authorize := func(pq *PartialQuery) {
		d := pol.Check(pq.Credentials, trusted, time.Now())
		if !d.Granted {
			b.Fatal(d.Reason)
		}
		if _, reason := verifyQueryKey(pq, d.ClientKey); reason != "" {
			b.Fatal(reason)
		}
	}
	b.Run("warm", func(b *testing.B) {
		pq := partial(f.client.Credentials[0], freshPoint(b))
		authorize(pq)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			authorize(pq)
		}
	})
	var cold []*PartialQuery
	next := 0 // the cycle goes on across runs: a restart would hit
	b.Run("cold", func(b *testing.B) {
		for len(cold) < coldAuthorizations {
			cred, err := f.ca.Issue(&f.client.PrivateKey.PublicKey,
				[]credential.Property{{Name: "role", Value: "analyst"}}, time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			cold = append(cold, partial(cred, freshPoint(b)))
		}
		before := rsaVerifications()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			authorize(cold[next])
			next = (next + 1) % len(cold)
		}
		b.StopTimer()
		if got := rsaVerifications() - before; got != 2*int64(b.N) {
			b.Fatalf("%d RSA-PSS verifications in %d authorizations, want 2 each", got, b.N)
		}
	})
}

// A query's frames open only under its own key. A mediator that answers
// a client's second query with the frames it relayed for the first, or
// that rewrites the counter on one source's partial query, makes a
// hybrid protocol abort at the client, and PM return no row outside the
// second query's join: the replayed or misdirected evaluations decrypt
// to random points, which is withholding.
func TestCrossQueryReplayRejected(t *testing.T) {
	r1, r2 := testRelations(t)
	join := func() *Network { return networkOver(t, nil, r1, r2) }
	agg := func() *Network { return aggNetwork(t, nil) }
	for _, sh := range []struct {
		name       string
		net        func() *Network
		sql1, sql2 string
		proto      Protocol
		source     string // the link whose partial query gets another counter
		dropped    bool
	}{
		{"das", join, fixtureSQL + " WHERE R1.id = 2", fixtureSQL + " WHERE R1.id = 3", ProtocolDAS, "source:R1", false},
		{"commutative", join, fixtureSQL + " WHERE R1.id = 2", fixtureSQL + " WHERE R1.id = 3", ProtocolCommutative, "source:R1", false},
		{"mobilecode", join, fixtureSQL + " WHERE R1.id = 2", fixtureSQL + " WHERE R1.id = 3", ProtocolMobileCode, "source:R2", false},
		{"aggregate", agg, "SELECT SUM(units) FROM Claims WHERE id = 1", "SELECT SUM(units) FROM Claims WHERE id = 4", ProtocolDAS, "source:Claims", false},
		{"pm", join, fixtureSQL + " WHERE R1.id = 2", fixtureSQL + " WHERE R1.id = 3", ProtocolPM, "source:R2", true},
	} {
		sh := sh
		want, err := sh.net().Query(sh.sql2, ProtocolPlaintext, fastParams())
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sh.name+"/replay", func(t *testing.T) {
			var first transcript
			if _, _, err := (tap{log: &first}).query(t, sh.net(), sh.sql1, sh.proto, fastParams()); err != nil {
				t.Fatalf("first query: %v", err)
			}
			replayed := map[string][]transport.Message{}
			for _, f := range first.on("client") {
				if f.dir == "send" {
					replayed[f.Type] = append(replayed[f.Type], f.Message)
				}
			}
			var mu sync.Mutex
			got, _, err := tap{onSend: func(link string, m transport.Message) transport.Message {
				mu.Lock()
				defer mu.Unlock()
				if old := replayed[m.Type]; link == "client" && len(old) > 0 {
					m, replayed[m.Type] = old[0], old[1:]
				}
				return m
			}}.query(t, sh.net(), sh.sql2, sh.proto, fastParams())
			checkRewriteOutcome(t, want, got, err, sh.dropped)
		})
		t.Run(sh.name+"/counter", func(t *testing.T) {
			got, _, err := tap{onSend: rewrite(t, sh.source, msgPartialQuery, func(pq *PartialQuery) { pq.QueryKeyIndex++ })}.
				query(t, sh.net(), sh.sql2, sh.proto, fastParams())
			checkRewriteOutcome(t, want, got, err, sh.dropped)
		})
	}
	// A replay matters when it answers with what the sources no longer
	// hold: between the two queries R2 loses (3, dortmund).
	t.Run("pm/rekeyed-replay", func(t *testing.T) {
		var kept []rel.Tuple
		for _, tu := range r2.Tuples() {
			if tu[1] != rel.String_("dortmund") {
				kept = append(kept, tu)
			}
		}
		later := rel.MustFromTuples(r2.Schema(), kept...)
		want, err := networkOver(t, nil, r1, later).Query(fixtureSQL, ProtocolPlaintext, fastParams())
		if err != nil {
			t.Fatal(err)
		}
		got, err := rekeyedPMReplay(t, networkOver(t, nil, r1, r2), networkOver(t, nil, r1, later), fixtureSQL)
		checkRewriteOutcome(t, want, got, err, true)
	})
}

// rekeyedPMReplay answers sql over net2 with the PM result the mediator
// relayed for sql over net1, each evaluation moved to the second query's
// key. Both queries'
// keys derive from one root X, so X_c2 = X_c1 + (h_c2 − h_c1)·G with
// offsets the mediator computes from the requests it relays, and
// (A, B + (h_c2 − h_c1)·A) decrypts under x_c2 to the point (A, B)
// decrypts to under x_c1. Only the blobs' binding to the client's own
// query key keeps the sealed tuple sets from opening.
func rekeyedPMReplay(t *testing.T, net1, net2 *Network, sql string) (*rel.Relation, error) {
	var first transcript
	if _, _, err := (tap{log: &first}).query(t, net1, sql, ProtocolPM, fastParams()); err != nil {
		t.Fatalf("first query: %v", err)
	}
	var req1 Request
	var res1 pmResult
	first.first(t, "client", msgRequest, &req1)
	first.first(t, "client", msgPMResult, &res1)
	h1 := queryKeyOffset(req1.QueryKey, req1.QueryKeyIndex)
	curve := elliptic.P256()
	x, y := elliptic.UnmarshalCompressed(curve, req1.QueryKey)
	hx, hy := curve.ScalarBaseMult(h1.Bytes())
	x, y = curve.Add(x, y, hx, hy)
	if !bytes.Equal(elliptic.MarshalCompressed(curve, x, y), hybrid.CompressPoint(queryPublic(t, req1.QueryKey, req1.QueryKeyIndex))) {
		t.Fatal("queryKeyOffset disagrees with hybrid.DeriveQueryPublic")
	}
	var mu sync.Mutex
	d := new(big.Int)
	onRecv := rewrite(t, "client", msgRequest, func(req2 *Request) {
		if !bytes.Equal(req2.QueryKey, req1.QueryKey) {
			t.Error("the two queries do not share a query root")
		}
		mu.Lock()
		defer mu.Unlock()
		d.Sub(queryKeyOffset(req2.QueryKey, req2.QueryKeyIndex), h1)
		d.Mod(d, curve.Params().N)
	})
	onSend := rewrite(t, "client", msgPMResult, func(res *pmResult) {
		mu.Lock()
		defer mu.Unlock()
		*res = res1
		for _, evals := range [][]pm.Eval{res.Evals1, res.Evals2} {
			for i := range evals {
				evals[i].Cipher = rekey(evals[i].Cipher, d)
			}
		}
	})
	got, _, err := tap{onRecv: onRecv, onSend: onSend}.query(t, net2, sql, ProtocolPM, fastParams())
	return got, err
}

// queryKeyOffset is h_c = SHA-256(tag ‖ X ‖ uvarint(c)) mod n, computed
// from public values alone, as a mediator can.
func queryKeyOffset(root []byte, c uint64) *big.Int {
	sum := sha256.Sum256(binary.AppendUvarint(append([]byte("secmediation/query-key-offset\x00"), root...), c))
	return new(big.Int).Mod(new(big.Int).SetBytes(sum[:]), elliptic.P256().Params().N)
}

// rekey returns the EC-ElGamal ciphertext (A, B + d·A) of a valid (A, B).
func rekey(c []byte, d *big.Int) []byte {
	curve := elliptic.P256()
	ax, ay := elliptic.UnmarshalCompressed(curve, c[:ecelgamal.PointSize])
	bx, by := elliptic.UnmarshalCompressed(curve, c[ecelgamal.PointSize:])
	dx, dy := curve.ScalarMult(ax, ay, d.Bytes())
	bx, by = curve.Add(bx, by, dx, dy)
	return append(elliptic.MarshalCompressed(curve, ax, ay), elliptic.MarshalCompressed(curve, bx, by)...)
}
