package mediation

import (
	"bytes"
	"crypto/ecdh"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

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
				sig, err := signQueryKey(f.client.PrivateKey, r.QueryKey)
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
// and every party unwinds. One that is not 33 bytes long does not decode,
// and the client blames the mediator that sent it.
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
		phase string
		// edit decodes m and returns the setter of its share field.
		edit func(t *testing.T, m transport.Message) func(share []byte) codec.Encodable
	}{
		{ProtocolDAS, msgDASIndexTables, telemetry.PhaseTranslate, func(t *testing.T, m transport.Message) func([]byte) codec.Encodable {
			var its dasIndexTables
			decodeBody(t, m, &its)
			return func(share []byte) codec.Encodable { its.Share1 = share; return its }
		}},
		{ProtocolCommutative, msgCommResult, telemetry.PhasePostFilter, func(t *testing.T, m transport.Message) func([]byte) codec.Encodable {
			var res commResult
			decodeBody(t, m, &res)
			return func(share []byte) codec.Encodable { res.Share2 = share; return res }
		}},
		{ProtocolMobileCode, msgMCResult, telemetry.PhasePostFilter, func(t *testing.T, m transport.Message) func([]byte) codec.Encodable {
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
				party, phase := hostileBlame(bad, hybrid.PointSize, leakage.PartyClient, p.phase, leakage.PartyMediator)
				if pe.Party != party || pe.Phase != phase {
					t.Errorf("blamed %s/%s, want %s/%s: %v", pe.Party, pe.Phase, party, phase, err)
				}
				if resilience.Retryable(err) {
					t.Errorf("hostile share classified retryable: %v", err)
				}
			})
		}
	}
}
