package mediation

import (
	"bytes"
	"crypto/ecdh"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"

	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/crypto/paillier"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// sourceLinkLog records, per source link, the type of every message and
// the grant of every ack.
type sourceLinkLog struct {
	mu     sync.Mutex
	types  map[string][]string
	grants map[string][]PartialAck
}

func newSourceLinkLog() *sourceLinkLog {
	return &sourceLinkLog{types: map[string][]string{}, grants: map[string][]PartialAck{}}
}

func (l *sourceLinkLog) tap(t *testing.T, link string, c transport.Conn) transport.Conn {
	note := func(dir string) func(transport.Message) transport.Message {
		return func(m transport.Message) transport.Message {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.types[link] = append(l.types[link], dir+" "+m.Type)
			if m.Type == msgPartialAck {
				var ack PartialAck
				decodeBody(t, m, &ack)
				l.grants[link] = append(l.grants[link], ack)
			}
			return m
		}
	}
	return &mediatorLinkConn{Conn: c, onSend: note("send"), onRecv: note("recv")}
}

// rewriteRequest returns a client-link wrapper that lets edit change the
// request after the client signed it.
func rewriteRequest(t *testing.T, edit func(*Request)) func(transport.Conn) transport.Conn {
	return func(c transport.Conn) transport.Conn {
		return &mediatorLinkConn{Conn: c, onRecv: func(m transport.Message) transport.Message {
			if m.Type != msgRequest {
				return m
			}
			var req Request
			decodeBody(t, m, &req)
			edit(&req)
			out, err := transport.NewMessage(m.Type, req)
			if err != nil {
				t.Error(err)
			}
			return out
		}}
	}
}

// freshPoint is a valid compressed P-256 point nobody signed.
func freshPoint(t *testing.T) []byte {
	t.Helper()
	k, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return hybrid.CompressPoint(k.PublicKey())
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
			got, srcErrs, err := queryAtMediator(t, sh.net(), func(_ string, c transport.Conn) transport.Conn { return c }, sh.sql, sh.proto, fastParams())
			if err != nil || !got.EqualMultiset(want) {
				t.Fatalf("honest query: %v\n%v\nwant\n%v", err, got, want)
			}
			for src, serr := range srcErrs {
				if serr != nil {
					t.Errorf("honest query: source %s: %v", src, serr)
				}
			}

			denied := map[string]func(*testing.T) (*Network, func(transport.Conn) transport.Conn){
				"rewritten key": func(t *testing.T) (*Network, func(transport.Conn) transport.Conn) {
					return sh.net(), rewriteRequest(t, func(r *Request) { r.QueryKey = freshPoint(t) })
				},
				"copied credential": func(t *testing.T) (*Network, func(transport.Conn) transport.Conn) {
					n := sh.net()
					n.Client = &Client{PrivateKey: thief(t), Credentials: n.Client.Credentials}
					return n, func(c transport.Conn) transport.Conn { return c }
				},
			}
			if sh.name == "aggregate" {
				denied["rewritten Paillier key"] = func(t *testing.T) (*Network, func(transport.Conn) transport.Conn) {
					return sh.net(), rewriteRequest(t, func(r *Request) {
						r.HomomorphicKey = &paillier.PublicKey{N: new(big.Int).Add(r.HomomorphicKey.N, big.NewInt(2))}
					})
				}
			}
			for name, setup := range denied {
				t.Run(name, func(t *testing.T) {
					n, clientLink := setup(t)
					links := newSourceLinkLog()
					_, srcErrs, err := queryAtMediator(t, n, func(link string, c transport.Conn) transport.Conn {
						if link == "client" {
							return clientLink(c)
						}
						return links.tap(t, link, c)
					}, sh.sql, sh.proto, fastParams())
					assertKeyDenied(t, err, srcErrs, links, len(n.Sources), "not signed by the credential's client key")
				})
			}
		})
	}
}

// assertKeyDenied checks that the client got the mediator's denial and
// that each of the wantSources sources denied the query with reason and
// sent nothing after its ack.
func assertKeyDenied(t *testing.T, err error, srcErrs map[string]error, links *sourceLinkLog, wantSources int, reason string) {
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
	links.mu.Lock()
	defer links.mu.Unlock()
	if len(links.grants) != wantSources {
		t.Errorf("%d sources answered, want %d", len(links.grants), wantSources)
	}
	for link, acks := range links.grants {
		if len(acks) != 1 || acks[0].Granted || !strings.Contains(acks[0].Reason, reason) {
			t.Errorf("%s: acks %+v, want one denial for %q", link, acks, reason)
		}
		for _, ty := range links.types[link] {
			if strings.HasPrefix(ty, "recv ") && ty != "recv "+msgPartialAck {
				t.Errorf("%s: source sent %s after denying", link, ty)
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
			links := newSourceLinkLog()
			_, srcErrs, err := queryAtMediator(t, newTestNetwork(t, nil), func(link string, c transport.Conn) transport.Conn {
				if link == "client" {
					return rewriteRequest(t, func(r *Request) {
						r.QueryKey = offCurve
						sig, err := signQueryKey(f.client.PrivateKey, r.QueryKey, r.HomomorphicKey)
						if err != nil {
							t.Error(err)
						}
						r.QueryKeySig = sig
					})(c)
				}
				return links.tap(t, link, c)
			}, fixtureSQL, proto, fastParams())
			assertKeyDenied(t, err, srcErrs, links, 2, "malformed query key")
			if ops := reg.OpDeltas(); ops["hybrid.wrap"] != 0 || ops["commutative.exp"] != 0 {
				t.Errorf("sources multiplied before refusing: hybrid.wrap %d, commutative.exp %d", ops["hybrid.wrap"], ops["commutative.exp"])
			}
		})
	}
}

// A source's session share reaches the client through the mediator. Any
// value that is not a compressed P-256 point ends the query in a terminal
// *ProtocolError at the client, in the phase that builds the receivers,
// and every party unwinds.
func TestHostileKeyShare(t *testing.T) {
	uncompressed, err := ecdh.P256().GenerateKey(rand.Reader)
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
		phase string
		edit  func(t *testing.T, m transport.Message, bad []byte) any
	}{
		{ProtocolDAS, msgDASIndexTables, telemetry.PhaseTranslate, func(t *testing.T, m transport.Message, bad []byte) any {
			var its dasIndexTables
			decodeBody(t, m, &its)
			its.Share1 = bad
			return its
		}},
		{ProtocolCommutative, msgCommResult, telemetry.PhasePostFilter, func(t *testing.T, m transport.Message, bad []byte) any {
			var res commResult
			decodeBody(t, m, &res)
			res.Share2 = bad
			return res
		}},
		{ProtocolMobileCode, msgMCResult, telemetry.PhasePostFilter, func(t *testing.T, m transport.Message, bad []byte) any {
			var res sessioned[mcResult]
			decodeBody(t, m, &res)
			res.Body.P1.KeyShare = bad
			return res
		}},
	}
	for _, p := range protos {
		p := p
		for name, bad := range shares {
			bad := bad
			t.Run(p.proto.String()+"/"+name, func(t *testing.T) {
				_, _, err := queryAtMediator(t, newTestNetwork(t, nil), func(link string, c transport.Conn) transport.Conn {
					if link != "client" {
						return c
					}
					return &mediatorLinkConn{Conn: c, onSend: func(m transport.Message) transport.Message {
						if m.Type != p.msg {
							return m
						}
						out, err := transport.NewMessage(m.Type, p.edit(t, m, bad))
						if err != nil {
							t.Error(err)
						}
						return out
					}}
				}, fixtureSQL, p.proto, fastParams())
				var pe *ProtocolError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want a *ProtocolError", err)
				}
				if pe.Party != leakage.PartyClient || pe.Phase != p.phase {
					t.Errorf("blamed %s/%s, want %s/%s: %v", pe.Party, pe.Phase, leakage.PartyClient, p.phase, err)
				}
				if resilience.Retryable(err) {
					t.Errorf("hostile share classified retryable: %v", err)
				}
			})
		}
	}
}
