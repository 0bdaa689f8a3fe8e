package mediation

import (
	"strings"
	"testing"
	"time"

	rel "github.com/secmediation/secmediation/internal/relation"
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

func (c *tamperConn) Expect(typ string) (transport.Message, error) {
	m, err := c.Recv()
	if err != nil {
		return m, err
	}
	if m.Type != typ {
		return transport.Message{}, errTypeMismatch
	}
	return m, nil
}

var errTypeMismatch = &tamperError{"type mismatch"}

type tamperError struct{ s string }

func (e *tamperError) Error() string { return e.s }

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
	// Corrupting the whole gob body breaks decoding → hard failure, which
	// is also acceptable; both outcomes must avoid wrong results.
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
