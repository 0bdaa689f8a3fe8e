// Package rawrecv exercises the rawrecv analyzer: a direct Recv on a
// transport.Conn must go through the abort-aware recvExpect helper.
// The unit test loads this fixture with RelDir overridden to
// internal/mediation, which arms the rule.
package rawrecv

import (
	"github.com/secmediation/secmediation/internal/transport"
)

// drain bypasses the helper.
func drain(conn transport.Conn) error {
	_, err := conn.Recv() // want "direct transport.Conn.Recv bypasses recvExpect"
	return err
}

// viaHelper models the sanctioned path: the helper owns the raw Recv
// (allowlisted in the real tree), callers stay clean.
func viaHelper(conn transport.Conn) error {
	_, err := recvExpectLike(conn, "mmm.partial-ack")
	return err
}

func recvExpectLike(conn transport.Conn, typ string) (transport.Message, error) {
	m, err := conn.Recv() // want "direct transport.Conn.Recv bypasses recvExpect"
	if err != nil {
		return transport.Message{}, err
	}
	_ = typ
	return m, nil
}

// mailbox has its own Recv; non-Conn receivers are out of scope.
type mailbox struct{ msgs []string }

func (m *mailbox) Recv() (string, error) { return m.msgs[0], nil }

func local(m *mailbox) {
	m.Recv() // no finding: not a transport.Conn
}

// send-side calls are out of scope too.
func send(conn transport.Conn, m transport.Message) error {
	return conn.Send(m)
}
