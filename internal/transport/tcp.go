package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxMessage is the inbound frame size limit (type tag plus body
// bytes) applied by Dial, Accept and WrapNetConn. Generous: the largest
// legitimate payloads (full encrypted relations in the PM and
// commutative protocols) stay well under it, while a hostile header
// claiming gigabytes is rejected before any allocation.
const DefaultMaxMessage = 256 << 20 // 256 MiB

// A frame on a TCP link is its header, its type tag and its body. The
// header is one byte, the format version above the opcode, then the
// session id, the type tag's length and the body's length as minimal
// uvarints (see Message.FrameSize).
const (
	// frameVersion is the frame format. A peer that writes another
	// format is refused at its first frame; the format before this one
	// began every frame with the high byte of a 16-bit type length, 0.
	frameVersion      = 1
	frameVersionShift = 4
	// maxFrameHeader is the longest header: the first byte and three
	// uvarints.
	maxFrameHeader = 1 + 3*binary.MaxVarintLen64
	// maxTypeLen bounds a type tag: tags are protocol names and reject
	// reasons.
	maxTypeLen = math.MaxUint16
)

// errFormat reports a frame of another format version, or a header that
// is not minimal uvarints.
var errFormat = errors.New("malformed frame header")

// midFrame renders a read failure inside a frame for the sticky error.
// A clean EOF becomes io.ErrUnexpectedEOF so it is never mistaken for an
// orderly peer shutdown. An expired deadline becomes io.ErrUnexpectedEOF
// too, with the timeout kept only in the text: the stream position is
// lost, so the link is dead, not idle, and a caller that reads ErrTimeout
// as idleness (the session mux's demux loop) would spin on the sticky
// error forever instead of failing the link.
func midFrame(err error) error {
	switch {
	case err == io.EOF:
		return io.ErrUnexpectedEOF
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("%w: deadline expired inside a frame (%v)", io.ErrUnexpectedEOF, err)
	}
	return err
}

// tcpConn adapts a net.Conn to the Conn interface with length-prefixed
// frames (see frameVersion), read through one buffer per link, so a
// header and a small body cost one read. Stats reports true wire bytes:
// every frame costs exactly its FrameSize on both ends.
type tcpConn struct {
	nc        net.Conn
	br        *bufio.Reader // guarded by recvMu
	max       int64         // inbound limit on len(Type)+len(Body)
	sendMu    sync.Mutex
	recvMu    sync.Mutex
	recvErr   error        // sticky, guarded by recvMu: the stream position is lost
	timeout   atomic.Int64 // nanoseconds; 0 disables
	stats     Stats
	closeOnce sync.Once
	closeErr  error
}

// Dial connects to a listening party at addr ("host:port").
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return WrapNetConn(nc), nil
}

// WrapNetConn turns any net.Conn into a transport Conn (length-prefixed
// frames) with the DefaultMaxMessage inbound frame limit.
func WrapNetConn(nc net.Conn) Conn {
	return WrapNetConnLimit(nc, DefaultMaxMessage)
}

// WrapNetConnLimit is WrapNetConn with an explicit inbound frame size
// limit in bytes; maxMessage <= 0 selects DefaultMaxMessage.
func WrapNetConnLimit(nc net.Conn, maxMessage int64) Conn {
	if maxMessage <= 0 {
		maxMessage = DefaultMaxMessage
	}
	return &tcpConn{nc: nc, br: bufio.NewReader(nc), max: maxMessage}
}

// Listener accepts party connections.
type Listener struct {
	l net.Listener
	// MaxMessage bounds inbound frames on accepted connections;
	// 0 selects DefaultMaxMessage.
	MaxMessage int64
}

// Listen starts a TCP listener at addr; use addr ":0" for an ephemeral
// port (see Addr).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for one inbound connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return WrapNetConnLimit(nc, l.MaxMessage), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// armDeadline applies the configured timeout (or clears a previous one)
// through set, which is one of SetReadDeadline/SetWriteDeadline. Deadline
// errors on a closed socket are ignored; the pending I/O reports the
// close itself.
func (c *tcpConn) armDeadline(set func(time.Time) error) {
	if d := time.Duration(c.timeout.Load()); d > 0 {
		_ = set(time.Now().Add(d))
	} else {
		_ = set(time.Time{})
	}
}

// Send implements Conn. It writes the header and type tag from one
// buffer and the body from the caller's slice, in one vectored write.
func (c *tcpConn) Send(m Message) error {
	if len(m.Type) > maxTypeLen {
		return fmt.Errorf("transport: tcp send: %w: %d-byte type tag", ErrTooLarge, len(m.Type))
	}
	if m.Op >= opLimit {
		return fmt.Errorf("transport: tcp send: opcode %d has no encoding", m.Op)
	}
	head := make([]byte, 0, maxFrameHeader+len(m.Type))
	head = append(head, frameVersion<<frameVersionShift|byte(m.Op))
	head = binary.AppendUvarint(head, m.Session)
	head = binary.AppendUvarint(head, uint64(len(m.Type)))
	head = binary.AppendUvarint(head, uint64(len(m.Body)))
	frame := net.Buffers{append(head, m.Type...)}
	if len(m.Body) > 0 { // an empty write blocks net.Pipe until the peer's next read
		frame = append(frame, m.Body)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.armDeadline(c.nc.SetWriteDeadline)
	n, err := frame.WriteTo(c.nc)
	c.stats.bytesSent.Add(n)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return fmt.Errorf("transport: tcp send: %w", ErrTimeout)
		}
		return fmt.Errorf("transport: tcp send: %w", err)
	}
	c.stats.msgsSent.Add(1)
	return nil
}

// Recv implements Conn. It checks the header's version, then its
// declared type tag against maxTypeLen and its declared size against
// the limit before allocating, then reads the type tag and body into
// one buffer.
//
// Error mapping mirrors the in-memory transport: an orderly peer shutdown
// between messages surfaces as bare io.EOF; a timeout before the first
// header byte surfaces as an error matching ErrTimeout; neither is sticky,
// because the stream is still aligned. Any failure after the first header
// byte, a frame of another format, and an oversized frame (ErrTooLarge)
// poison the link: every later Recv returns the same error, which never
// matches ErrTimeout (see midFrame).
func (c *tcpConn) Recv() (Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.recvErr != nil {
		return Message{}, c.recvErr
	}
	c.armDeadline(c.nc.SetReadDeadline)
	first, err := c.br.ReadByte()
	switch {
	case err == io.EOF:
		return Message{}, io.EOF
	case errors.Is(err, os.ErrDeadlineExceeded):
		return Message{}, fmt.Errorf("transport: tcp recv: %w", ErrTimeout)
	case err != nil:
		return Message{}, fmt.Errorf("transport: tcp recv: %w", err)
	}
	c.stats.bytesRecv.Add(1)
	if v := first >> frameVersionShift; v != frameVersion {
		return c.poison(fmt.Errorf("%w: format %d, want %d", errFormat, v, frameVersion))
	}
	var h [3]uint64 // session id, type tag length, body length
	for i := range h {
		if h[i], err = c.uvarint(); err != nil {
			return c.poison(fmt.Errorf("frame header: %w", midFrame(err)))
		}
	}
	typeLen, bodyLen := h[1], h[2]
	if typeLen > maxTypeLen {
		return c.poison(fmt.Errorf("%w: frame declares a %d-byte type tag, limit %d", ErrTooLarge, typeLen, maxTypeLen))
	}
	if typeLen > uint64(c.max) || bodyLen > uint64(c.max)-typeLen {
		return c.poison(fmt.Errorf("%w: frame declares a %d-byte type tag and a %d-byte body, limit %d", ErrTooLarge, typeLen, bodyLen, c.max))
	}
	buf := make([]byte, typeLen+bodyLen)
	n, err := io.ReadFull(c.br, buf)
	c.stats.bytesRecv.Add(int64(n))
	if err != nil {
		return c.poison(fmt.Errorf("truncated frame: %w", midFrame(err)))
	}
	c.stats.msgsRecv.Add(1)
	return Message{Op: Op(first & (opLimit - 1)), Session: h[0], Type: string(buf[:typeLen]), Body: buf[typeLen:]}, nil
}

// uvarint reads one minimal uvarint of a frame header and counts its
// bytes. The caller holds recvMu.
func (c *tcpConn) uvarint() (uint64, error) {
	var x uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := c.br.ReadByte()
		if err != nil {
			return 0, err
		}
		c.stats.bytesRecv.Add(1)
		if b < 0x80 {
			if i > 0 && b == 0 || i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("%w: uvarint not minimal or past 64 bits", errFormat)
			}
			return x | uint64(b)<<(7*i), nil
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	return 0, fmt.Errorf("%w: uvarint past 64 bits", errFormat)
}

// poison records err as the link's sticky receive error. The caller
// holds recvMu.
func (c *tcpConn) poison(err error) (Message, error) {
	c.recvErr = fmt.Errorf("transport: tcp recv: %w", err)
	return Message{}, c.recvErr
}

// Close implements Conn.
func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}

// SetTimeout implements Conn. It arms per-operation net.Conn deadlines;
// an in-flight Recv is not interrupted, the bound applies from the next
// Send/Recv on.
func (c *tcpConn) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.timeout.Store(int64(d))
}

// Stats implements Conn.
func (c *tcpConn) Stats() *Stats { return &c.stats }
