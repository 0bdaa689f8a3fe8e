// Package transport provides the message-passing fabric between the
// mediation parties (client, mediator, datasources): typed message
// envelopes, an in-memory duplex channel pair for single-process runs and
// tests, a length-prefixed TCP transport for multi-process deployment,
// and per-link traffic accounting used by the Section 6 cost experiments.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/secmediation/secmediation/internal/codec"
)

// ErrTimeout reports that a Send or Recv exceeded the timeout configured
// with Conn.SetTimeout. Match it with errors.Is; protocols treat it as a
// dead peer and abort.
var ErrTimeout = errors.New("transport: i/o timeout")

// ErrTooLarge reports an inbound message whose declared size exceeds the
// receiver's limit (see WrapNetConnLimit). The connection is poisoned:
// subsequent Recv calls keep failing, because the stream position inside
// the oversized frame is lost.
var ErrTooLarge = errors.New("transport: message exceeds size limit")

// ErrIntegrity reports a message body whose digest no longer matches its
// payload: the message was corrupted or truncated in flight. Without the
// check, a flipped byte that keeps the payload decodable silently changes
// the protocol's inputs — a DAS server query with a flipped partition
// index returns a wrong (smaller) join instead of an error. The error is
// a link fault, so retry orchestration treats it as transient.
var ErrIntegrity = errors.New("transport: integrity: message digest mismatch")

// Message is the unit of exchange between parties: a protocol-defined type
// tag and an encoded body, behind the session layer's fixed header (an
// opcode and a session id). A message of the zero header is a data frame
// on a link without sessions.
type Message struct {
	// Type tags the message for dispatching (e.g. "das.partial-result").
	Type string
	// Body is the integrity digest followed by the encoded payload.
	Body []byte
	// Op is the frame's opcode (see OpData).
	Op Op
	// Session is the id of the multiplexed session the frame belongs to;
	// 0 on a link without sessions.
	Session uint64
}

// Op is a frame's opcode: what the session layer does with it.
type Op uint8

// The opcodes. A TCP frame carries one in the low bits of its first
// byte, below the format version (see frameVersion).
const (
	// OpData carries a message: a session's, or the link's own.
	OpData Op = iota
	// OpOpen opens a session; the sender picked its id.
	OpOpen
	// OpClose closes a session in order.
	OpClose
	// OpReject refuses a session the peer opened; Type holds the reason.
	OpReject
	// opLimit is one past the largest opcode a frame can carry.
	opLimit = 1 << frameVersionShift
)

// Size returns the message's payload size: type tag plus body bytes.
// The size limit of a TCP link bounds it.
func (m Message) Size() int { return len(m.Type) + len(m.Body) }

// FrameSize returns the bytes the message occupies on a TCP link: its
// header (opcode byte, then the session id, the type tag's length and
// the body's length as uvarints), its type tag and its body. Every
// transport, and the session mux for each of its sessions, counts a
// message at this size, so the in-memory links account the bytes a TCP
// deployment puts on the wire.
func (m Message) FrameSize() int {
	return 1 + uvarintLen(m.Session) + uvarintLen(uint64(len(m.Type))) + uvarintLen(uint64(len(m.Body))) + m.Size()
}

// uvarintLen is the length of n's uvarint encoding.
func uvarintLen(n uint64) int { return (bits.Len64(n|1) + 6) / 7 }

// Encode encodes a payload into a message body: by its codec layout
// when it has one, as every protocol message does, and as gob otherwise.
// seclint:wire encodes the payload for a link
func Encode(v any) ([]byte, error) {
	return encode(0, v)
}

// encode returns v's encoding behind prefix zero bytes. A codec layout
// is sized first and written straight into one buffer of exactly the
// final length.
func encode(prefix int, v any) ([]byte, error) {
	if m, ok := v.(codec.Encodable); ok {
		n, err := codec.Size(m)
		if err != nil {
			return nil, fmt.Errorf("transport: encode: %w", err)
		}
		b, err := codec.Append(make([]byte, prefix, prefix+n), m, n)
		if err != nil {
			return nil, fmt.Errorf("transport: encode: %w", err)
		}
		return b, nil
	}
	w := bytes.NewBuffer(make([]byte, prefix))
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	return w.Bytes(), nil
}

// Decode decodes a message body into v: by its codec layout when it has
// one, as every protocol message does, and as gob otherwise.
func Decode(b []byte, v any) error {
	var err error
	if u, ok := v.(codec.Decodable); ok {
		err = codec.Unmarshal(b, u)
	} else {
		err = gob.NewDecoder(bytes.NewReader(b)).Decode(v)
	}
	if err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}

// sumLen is the length of the integrity digest prefixed to every
// message body by NewMessage and verified by Payload.
const sumLen = 4

// castagnoli is the CRC-32C table; hash/crc32 computes it with the
// CPU's CRC instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest is the CRC-32C of an encoded payload. It detects accidental
// in-flight corruption and truncation (so protocols fail typed instead
// of computing on mangled inputs); it is NOT a MAC — tamper resistance
// comes from the hybrid-encryption layer above, per the paper's trust
// model. It travels in the body, not in the TCP frame header, because
// the faults it must catch (FaultCorrupt, FaultTruncate) act on
// messages on any Conn, in-memory links and mux sessions included.
func digest(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// Payload verifies a received message's integrity digest and returns
// the encoded payload, or an ErrIntegrity-wrapped error when the body
// was corrupted or truncated in flight.
func Payload(m Message) ([]byte, error) {
	if len(m.Body) < sumLen {
		return nil, fmt.Errorf("message %q: %d-byte body: %w", m.Type, len(m.Body), ErrIntegrity)
	}
	if binary.BigEndian.Uint32(m.Body) != digest(m.Body[sumLen:]) {
		return nil, fmt.Errorf("message %q: %w", m.Type, ErrIntegrity)
	}
	return m.Body[sumLen:], nil
}

// NewMessage builds a message with an encoded, integrity-sealed body
// (see Encode). The payload is encoded once, behind an empty digest slot
// that is then filled in place; a codec layout's body is allocated once,
// at exactly its length.
// seclint:wire encodes the payload for a link
func NewMessage(typ string, v any) (Message, error) {
	body, err := encode(sumLen, v)
	if err != nil {
		return Message{}, err
	}
	binary.BigEndian.PutUint32(body, digest(body[sumLen:]))
	return Message{Type: typ, Body: body}, nil
}

// Conn is one endpoint of a duplex party-to-party link.
type Conn interface {
	// Send transmits a message to the peer.
	Send(Message) error
	// Recv blocks for the next message from the peer.
	Recv() (Message, error)
	// Close releases the link. Pending Recv calls fail.
	Close() error
	// SetTimeout bounds every subsequent Send and Recv to d. Zero or
	// negative disables the bound. A timed-out operation fails with an
	// error matching ErrTimeout (via errors.Is).
	SetTimeout(d time.Duration)
	// Stats returns this endpoint's traffic counters.
	Stats() *Stats
}

// Stats counts traffic through one endpoint. All fields are managed
// atomically; read them only through the accessor methods while the link
// is live.
type Stats struct {
	msgsSent, msgsRecv   atomic.Int64
	bytesSent, bytesRecv atomic.Int64
}

// MsgsSent returns the number of messages sent.
func (s *Stats) MsgsSent() int64 { return s.msgsSent.Load() }

// MsgsRecv returns the number of messages received.
func (s *Stats) MsgsRecv() int64 { return s.msgsRecv.Load() }

// BytesSent returns the accounted bytes sent.
func (s *Stats) BytesSent() int64 { return s.bytesSent.Load() }

// BytesRecv returns the accounted bytes received.
func (s *Stats) BytesRecv() int64 { return s.bytesRecv.Load() }

// CountSend records one sent message of the given accounted size.
// Exported for Conn wrappers outside this package (the session mux) that
// attribute a shared link's traffic to per-session counters.
func (s *Stats) CountSend(bytes int64) {
	s.msgsSent.Add(1)
	s.bytesSent.Add(bytes)
}

// CountRecv records one received message of the given accounted size.
func (s *Stats) CountRecv(bytes int64) {
	s.msgsRecv.Add(1)
	s.bytesRecv.Add(bytes)
}

// UncountRecv takes back a CountRecv of the given size, for a message
// counted on arrival and then discarded undelivered.
func (s *Stats) UncountRecv(bytes int64) {
	s.msgsRecv.Add(-1)
	s.bytesRecv.Add(-bytes)
}

// chanConn is an in-memory Conn over buffered channels.
type chanConn struct {
	out, in   chan Message
	closeOnce sync.Once
	closed    chan struct{}
	peerDone  chan struct{}
	timeout   atomic.Int64 // nanoseconds; 0 disables
	stats     Stats
}

// pairDepth is the frames each direction of a Pair buffers. On a
// mediation link the most frames one end sends before its next receive
// is 2: a source's partial-ack and its first delivery message. An abort
// adds its mmm.error frame and a chaos duplicate one more frame, so at
// most 4 are unread at once. A session mux over a Pair parks frames on
// the link while a session's receive queue is full: TestMuxBackpressure
// sends 16 past a full queue, one held by the blocked demux loop and 15
// on the link. Each slot is a 56-byte Message
// header, so a link holds 1.8 kB where 1,024 slots held 80 kB.
const pairDepth = 16

// Pair creates a connected in-memory duplex link and returns its two
// endpoints. Each direction buffers pairDepth frames, so a protocol
// that alternates sends and receives never blocks on a send.
func Pair() (Conn, Conn) {
	ab := make(chan Message, pairDepth)
	ba := make(chan Message, pairDepth)
	a := &chanConn{out: ab, in: ba, closed: make(chan struct{})}
	b := &chanConn{out: ba, in: ab, closed: make(chan struct{})}
	a.peerDone = b.closed
	b.peerDone = a.closed
	return a, b
}

// Send implements Conn.
func (c *chanConn) Send(m Message) error {
	// Closure checks must win over a ready buffer slot, so probe them
	// before the (possibly non-blocking) send.
	select {
	case <-c.closed:
		return fmt.Errorf("transport: send on closed connection")
	default:
	}
	select {
	case <-c.peerDone:
		return fmt.Errorf("transport: peer closed")
	default:
	}
	deadline, stop := c.deadline()
	defer stop()
	select {
	case <-c.closed:
		return fmt.Errorf("transport: send on closed connection")
	case <-c.peerDone:
		return fmt.Errorf("transport: peer closed")
	case c.out <- m:
		c.stats.CountSend(int64(m.FrameSize()))
		return nil
	case <-deadline:
		return fmt.Errorf("transport: send: %w", ErrTimeout)
	}
}

// deadline returns a channel that fires when the configured timeout
// elapses (nil — never — when timeouts are disabled) and a stop function
// releasing the backing timer.
func (c *chanConn) deadline() (<-chan time.Time, func()) {
	d := time.Duration(c.timeout.Load())
	if d <= 0 {
		return nil, func() {}
	}
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// Recv implements Conn.
func (c *chanConn) Recv() (Message, error) {
	select {
	case <-c.closed:
		return Message{}, fmt.Errorf("transport: recv on closed connection")
	default:
	}
	deadline, stop := c.deadline()
	defer stop()
	select {
	case <-c.closed:
		return Message{}, fmt.Errorf("transport: recv on closed connection")
	case m := <-c.in:
		c.stats.CountRecv(int64(m.FrameSize()))
		return m, nil
	case <-deadline:
		return Message{}, fmt.Errorf("transport: recv: %w", ErrTimeout)
	case <-c.peerDone:
		// Drain messages the peer sent before closing.
		select {
		case m := <-c.in:
			c.stats.CountRecv(int64(m.FrameSize()))
			return m, nil
		default:
			return Message{}, io.EOF
		}
	}
}

// Close implements Conn.
func (c *chanConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// SetTimeout implements Conn.
func (c *chanConn) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeout.Store(int64(d))
}

// Stats implements Conn.
func (c *chanConn) Stats() *Stats { return &c.stats }
