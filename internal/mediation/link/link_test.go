package link

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/transport"
)

// stubConn hands Recv one frame (or one link failure) and records what
// is sent, so each Recv outcome is driven without a live peer.
type stubConn struct {
	transport.Conn
	frame transport.Message
	err   error
	sent  []transport.Message
}

func (c *stubConn) Recv() (transport.Message, error) { return c.frame, c.err }

func (c *stubConn) Send(m transport.Message) error {
	c.sent = append(c.sent, m)
	return nil
}

// probe is a payload that records whether the decoder ever reached it.
type probe struct{ decoded bool }

func (p *probe) EncodeTo(e *codec.Encoder) { e.Byte(1) }

func (p *probe) DecodeFrom(d *codec.Decoder) {
	d.Next(func(b []byte) (int, error) {
		if !bytes.Equal(b, []byte{1}) {
			return 0, errors.New("not a probe")
		}
		p.decoded = true
		return len(b), nil
	})
}

const wantType = "test.frame"

// frame builds a valid frame of type typ carrying v.
func frame(t testing.TB, typ string, v any) transport.Message {
	t.Helper()
	m, err := transport.NewMessage(typ, v)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// abortFrame is the frame Abort sends for err from party.
func abortFrame(t testing.TB, from string, err error) transport.Message {
	t.Helper()
	c := &stubConn{}
	New(c, "peer").Abort(from, err)
	if len(c.sent) != 1 {
		t.Fatalf("Abort sent %d frames, want 1", len(c.sent))
	}
	return c.sent[0]
}

// corrupt flips the last body byte, so the digest no longer matches.
func corrupt(m transport.Message) transport.Message {
	body := append([]byte(nil), m.Body...)
	body[len(body)-1] ^= 0xff
	return transport.Message{Type: m.Type, Body: body}
}

// TestRecv covers every outcome of Link.Recv on a link whose peer is the
// mediator: what the error is blamed on, during which phase, which
// classes it keeps, and whether the payload reached the decoder.
func TestRecv(t *testing.T) {
	linkDown := fmt.Errorf("transport: recv: %w", transport.ErrTimeout)
	cases := []struct {
		name    string
		frame   transport.Message
		linkErr error
		// party and phase are the attribution; an empty party means
		// success.
		party, phase string
		timeout      bool // errors.Is(err, transport.ErrTimeout)
		integrity    bool // errors.Is(err, transport.ErrIntegrity)
		retryable    bool
		relayed      bool   // Relayed(err)
		text         string // a substring of the error
		decoded      bool
	}{
		{name: "ok", frame: frame(t, wantType, &probe{}), decoded: true},
		{name: "link failure", linkErr: linkDown,
			party: "mediator", timeout: true, retryable: true, text: `link failed awaiting "test.frame"`},
		{name: "relayed timeout", frame: abortFrame(t, "source:S1", fmt.Errorf("awaiting ack: %w", transport.ErrTimeout)),
			party: "source:S1", timeout: true, retryable: true, relayed: true, text: "peer error: awaiting ack"},
		{name: "relayed violation", frame: abortFrame(t, "source:S1", errors.New("schema mismatch")),
			party: "source:S1", relayed: true, text: "peer error: schema mismatch"},
		{name: "relayed attribution", frame: abortFrame(t, "mediator",
			&ProtocolError{Party: "source:S2", Phase: "cross.encrypt", Err: errors.New("bad partition")}),
			party: "source:S2", phase: "cross.encrypt", relayed: true, text: "bad partition"},
		{name: "relayed attributed timeout", frame: abortFrame(t, "mediator",
			&ProtocolError{Party: "source:R1", Err: linkDown}),
			party: "source:R1", timeout: true, retryable: true, relayed: true, text: "i/o timeout"},
		{name: "abort without party", frame: abortFrame(t, "", errors.New("no origin")),
			party: "mediator", relayed: true, text: "peer error: no origin"},
		{name: "undecodable abort", frame: transport.Message{Type: msgError, Body: []byte("not an abort frame")},
			party: "mediator", text: "peer error (undecodable)"},
		{name: "wrong type tag", frame: frame(t, "test.other", &probe{}),
			party: "mediator", text: `expected "test.frame", got "test.other"`},
		{name: "digest mismatch", frame: corrupt(frame(t, wantType, &probe{})),
			party: "mediator", integrity: true, retryable: true, text: `receiving "test.frame"`},
		{name: "decode failure", frame: frame(t, wantType, "a string, not a probe"),
			party: "mediator", text: `decoding "test.frame"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p probe
			err := New(&stubConn{frame: tc.frame, err: tc.linkErr}, "mediator").Recv(wantType, &p)
			if p.decoded != tc.decoded {
				t.Errorf("payload decoded = %v, want %v", p.decoded, tc.decoded)
			}
			if tc.party == "" {
				if err != nil {
					t.Fatalf("Recv: %v", err)
				}
				return
			}
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("Recv error %v is not a *ProtocolError", err)
			}
			if pe.Party != tc.party || pe.Phase != tc.phase {
				t.Errorf("attributed to %q/%q, want %q/%q", pe.Party, pe.Phase, tc.party, tc.phase)
			}
			if got := errors.Is(err, transport.ErrTimeout); got != tc.timeout {
				t.Errorf("errors.Is(ErrTimeout) = %v, want %v", got, tc.timeout)
			}
			if got := errors.Is(err, transport.ErrIntegrity); got != tc.integrity {
				t.Errorf("errors.Is(ErrIntegrity) = %v, want %v", got, tc.integrity)
			}
			if got := resilience.Retryable(err); got != tc.retryable {
				t.Errorf("Retryable = %v, want %v", got, tc.retryable)
			}
			if tc.linkErr != nil && !errors.Is(err, tc.linkErr) {
				t.Errorf("link failure %v does not wrap its cause", err)
			}
			if !strings.Contains(err.Error(), tc.text) {
				t.Errorf("error %q does not contain %q", err, tc.text)
			}
			if strings.Count(err.Error(), "peer error:") > 1 {
				t.Errorf("error %q repeats its relay prefix", err)
			}
			if got := Relayed(err); got != tc.relayed {
				t.Errorf("Relayed = %v, want %v", got, tc.relayed)
			}
		})
	}
}

// FuzzLinkRecv feeds arbitrary frames to Recv. It must never panic,
// every error must be a *ProtocolError, a body that fails its digest
// must never reach the decoder, and an abort frame that decodes must
// re-encode to itself.
func FuzzLinkRecv(f *testing.F) {
	for _, m := range []transport.Message{
		frame(f, wantType, &probe{}),
		frame(f, "test.other", &probe{}),
		frame(f, wantType, "a string, not a probe"),
		corrupt(frame(f, wantType, &probe{})),
		abortFrame(f, "source:S1", fmt.Errorf("awaiting ack: %w", transport.ErrTimeout)),
		abortFrame(f, "", errors.New("no origin")),
		corrupt(abortFrame(f, "source:S1", errors.New("schema mismatch"))),
		{Type: msgError, Body: []byte("not an abort frame")},
	} {
		f.Add(m.Type, m.Body)
	}
	f.Fuzz(func(t *testing.T, typ string, body []byte) {
		m := transport.Message{Type: typ, Body: body}
		var p probe
		err := New(&stubConn{frame: m}, "mediator").Recv(wantType, &p)
		var pe *ProtocolError
		if err != nil && !errors.As(err, &pe) {
			t.Fatalf("Recv error %v is not a *ProtocolError", err)
		}
		if _, perr := transport.Payload(m); perr != nil && p.decoded {
			t.Fatalf("a body that fails its digest reached the decoder: %v", perr)
		}
		if p.decoded && (err != nil || typ != wantType) {
			t.Fatalf("decoded a %q frame, then failed with %v", typ, err)
		}
		var eb errorBody
		if payload, perr := transport.Payload(m); perr == nil && codec.Unmarshal(payload, &eb) == nil {
			if again, err := codec.Marshal(eb); err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("abort payload %x re-encodes to %x (%v)", payload, again, err)
			}
		}
	})
}

// An abort frame's hand-written body is no longer than gob's body for
// the same fields without type descriptors (the rule the delivery-phase
// messages follow in package mediation).
func TestAbortFrameNotLargerThanGob(t *testing.T) {
	type gobErrorBody struct {
		Party, Phase, Message string
		Transient, Timeout    bool
	}
	for _, b := range []errorBody{
		{Party: "source:S1", Message: "awaiting ack: transport: i/o timeout", Transient: true, Timeout: true},
		{Party: "source:S2", Phase: "cross.encrypt", Message: "bad partition"},
		{},
	} {
		body, err := codec.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		g := gobErrorBody(b)
		if err := enc.Encode(g); err != nil {
			t.Fatal(err)
		}
		first := buf.Len()
		if err := enc.Encode(g); err != nil {
			t.Fatal(err)
		}
		if gobLen := buf.Len() - first; len(body) > gobLen {
			t.Errorf("%+v: %d bytes, gob without descriptors %d", b, len(body), gobLen)
		}
	}
}
