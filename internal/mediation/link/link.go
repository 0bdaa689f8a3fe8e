// Package link is one party's end of a delivery-phase link: a
// transport.Conn together with the party name of the peer behind it.
// Its only receive is Recv, which turns link failures and the peer's
// abort frames into typed *ProtocolError aborts, so protocol code cannot
// read a frame past the abort path.
package link

import (
	"errors"
	"fmt"
	"time"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/transport"
)

// msgError tags an abort frame.
const msgError = "mmm.error"

// ProtocolError is the typed abort error every party surfaces when a
// delivery-phase run fails: it attributes the failure to the party where
// it originated (leakage party naming: "client", "mediator", "source:S1",
// or the mediator's relation-addressed "source:R1" for links whose source
// name is unknown) and, when known, the protocol phase that was active
// there. Callers unwrap the cause with errors.Is/As — a timeout matches
// transport.ErrTimeout, wherever its deadline fired.
type ProtocolError struct {
	// Party is where the failure originated (or the peer behind the link
	// that failed, when the party itself is unreachable).
	Party string
	// Phase is the telemetry phase active at the origin, when known
	// (e.g. "cross.encrypt").
	Phase string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *ProtocolError) Error() string {
	if e.Phase != "" {
		return fmt.Sprintf("mediation: %s failed during %s: %v", e.Party, e.Phase, e.Err)
	}
	return fmt.Sprintf("mediation: %s failed: %v", e.Party, e.Err)
}

// Unwrap supports errors.Is/As on the cause.
func (e *ProtocolError) Unwrap() error { return e.Err }

// errorBody is the payload of an abort frame: the originating party and
// phase travel with it so every survivor reports the same attribution.
// Error chains flatten to strings at party boundaries, so the origin's
// classes ride along as flags: Transient keeps a relayed timeout (worth
// a fresh attempt) apart from a relayed protocol violation (terminal),
// and Timeout keeps it matching transport.ErrTimeout.
type errorBody struct {
	Party     string
	Phase     string
	Message   string
	Transient bool
	Timeout   bool
}

// Flag bits of an abort frame's class byte.
const (
	flagTransient = 1 << iota
	flagTimeout
)

// EncodeTo writes the three strings, then the class flags in one byte.
func (b errorBody) EncodeTo(e *codec.Encoder) {
	e.Text(b.Party)
	e.Text(b.Phase)
	e.Text(b.Message)
	var flags byte
	if b.Transient {
		flags |= flagTransient
	}
	if b.Timeout {
		flags |= flagTimeout
	}
	e.Byte(flags)
}

// DecodeFrom reads an abort frame written by EncodeTo.
func (b *errorBody) DecodeFrom(d *codec.Decoder) {
	b.Party, b.Phase, b.Message = d.Text(), d.Text(), d.Text()
	flags := d.Byte()
	if flags&^(flagTransient|flagTimeout) != 0 {
		d.Fail(fmt.Errorf("link: unknown abort flags %#x", flags))
	}
	b.Transient, b.Timeout = flags&flagTransient != 0, flags&flagTimeout != 0
}

// peerError is a failure a peer reported in an abort frame. Message is
// the origin's own text, which Abort relays as is, so a failure reads
// "peer error: " once however many parties it crossed.
type peerError struct {
	Message string
	timeout bool
}

func (e *peerError) Error() string { return "peer error: " + e.Message }

// Is matches transport.ErrTimeout when the origin's deadline fired.
func (e *peerError) Is(target error) bool { return e.timeout && target == transport.ErrTimeout }

// Relayed reports whether err is a failure a peer reported in an abort
// frame, rather than one that happened at this party.
func Relayed(err error) bool {
	var pe *peerError
	return errors.As(err, &pe)
}

// Link is one party's end of a link, named by the party at its far end.
type Link struct {
	conn transport.Conn
	peer string
}

// New wraps conn, whose far end is the party peer.
func New(conn transport.Conn, peer string) *Link { return &Link{conn: conn, peer: peer} }

// Peer names the party at the far end.
func (l *Link) Peer() string { return l.peer }

// SetTimeout bounds every later Send and Recv to d, as Conn.SetTimeout.
func (l *Link) SetTimeout(d time.Duration) { l.conn.SetTimeout(d) }

// Stats returns the link's traffic counters.
func (l *Link) Stats() *transport.Stats { return l.conn.Stats() }

// Close releases the link.
func (l *Link) Close() error { return l.conn.Close() }

// SessionID reports the mux session ID of the link, when its conn is a
// session-layer stream. Plain links report false.
func (l *Link) SessionID() (uint64, bool) {
	s, ok := l.conn.(interface{ SessionID() uint64 })
	if !ok {
		return 0, false
	}
	return s.SessionID(), true
}

// fail blames a failure on the peer.
func (l *Link) fail(format string, args ...any) error {
	return l.Blame(fmt.Errorf(format, args...))
}

// Blame attributes err to the peer: a party's check on what the peer
// sent over this link failed. The attribution is the origin's, so a
// phase that returns it does not re-blame its own party.
func (l *Link) Blame(err error) error { return &ProtocolError{Party: l.peer, Err: err} }

// Send encodes v and sends it as a typ frame. A send failure is blamed
// on the peer.
//
// seclint:wire encodes the payload onto the party link
func (l *Link) Send(typ string, v codec.Encodable) error {
	m, err := transport.NewMessage(typ, v)
	if err != nil {
		return err
	}
	if err := l.conn.Send(m); err != nil {
		return l.fail("sending %q: %w", typ, err)
	}
	return nil
}

// Recv receives the next frame, which must be a typ frame, and decodes
// its body into v. Every failure is a *ProtocolError. A failed link, a
// frame of another type, a body that fails its digest and one that does
// not decode are blamed on the peer. An abort frame keeps the origin's
// party (the peer's, when it names none), phase, retry class and timeout
// class.
//
// seclint:wire decodes a link payload into the target (keys must not
// arrive over a link either)
func (l *Link) Recv(typ string, v codec.Decodable) error {
	m, err := l.conn.Recv()
	if err != nil {
		return l.fail("link failed awaiting %q: %w", typ, err)
	}
	if m.Type == msgError {
		var body errorBody
		payload, err := transport.Payload(m)
		if err == nil {
			err = transport.Decode(payload, &body)
		}
		if err != nil {
			return l.fail("peer error (undecodable)")
		}
		if body.Party == "" {
			body.Party = l.peer
		}
		cause := error(&peerError{Message: body.Message, timeout: body.Timeout})
		if body.Transient {
			cause = resilience.MarkTransient(cause)
		}
		return &ProtocolError{Party: body.Party, Phase: body.Phase, Err: cause}
	}
	if m.Type != typ {
		return l.fail("expected %q, got %q", typ, m.Type)
	}
	// Verify the body digest before any payload reaches a decoder: a
	// corrupted-but-decodable payload would otherwise silently change
	// the protocol's inputs (and with them the join). Integrity
	// failures are link faults — typed and retryable.
	payload, err := transport.Payload(m)
	if err != nil {
		return l.fail("receiving %q: %w", typ, err)
	}
	if err := transport.Decode(payload, v); err != nil {
		return l.fail("decoding %q: %w", typ, err)
	}
	return nil
}

// Abort best-effort reports err to the peer in an abort frame, so the
// peer can abort instead of hanging. The from party names the sender;
// when err already carries a *ProtocolError, the origin's party, phase
// and text are forwarded unchanged, and so are its retry and timeout
// classes.
func (l *Link) Abort(from string, err error) {
	body := errorBody{Party: from, Message: err.Error(),
		Transient: resilience.Retryable(err), Timeout: errors.Is(err, transport.ErrTimeout)}
	var pe *ProtocolError
	if errors.As(err, &pe) {
		body.Party, body.Phase, body.Message = pe.Party, pe.Phase, pe.Err.Error()
		var relayed *peerError
		if errors.As(pe.Err, &relayed) {
			body.Message = relayed.Message
		}
	}
	m, e := transport.NewMessage(msgError, body)
	if e != nil {
		return
	}
	if serr := l.conn.Send(m); serr != nil {
		// The peer is already unreachable; the caller's original error is
		// what surfaces, and the peer's own Recv will fail on the dead
		// link, so there is nothing further to do with serr.
		return
	}
}
