package transport

import (
	"encoding/gob"
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

// DefaultMaxMessage is the inbound gob frame size limit applied by Dial,
// Accept and WrapNetConn. Generous: the largest legitimate payloads (full
// encrypted relations in the PM and commutative protocols) stay well
// under it, while a hostile length prefix claiming gigabytes is rejected
// before any allocation.
const DefaultMaxMessage = 256 << 20 // 256 MiB

// countingWriter counts every byte that actually leaves for the wire —
// including gob's type descriptors and frame headers, which
// Message.Size() knows nothing about.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

// countingReader counts every byte consumed from the wire. Frames are
// read exactly (no read-ahead, see frameLimitReader), so after a message
// is fully decoded the count covers everything the peer sent for it.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

// frameLimitReader sits between the wire and the gob decoder. It parses
// gob's own framing — an unsigned varint byte count followed by that many
// bytes — and rejects frames whose declared size exceeds max BEFORE
// reading or allocating the body, so a hostile length prefix cannot OOM
// the receiving party (gob itself allocates up to 1 GiB on trust).
//
// It implements io.ByteReader so the gob decoder uses it directly instead
// of wrapping it in a read-ahead bufio.Reader; reads therefore consume
// the underlying stream exactly frame by frame, which keeps the counting
// reader's wire-byte accounting exact.
type frameLimitReader struct {
	r   io.Reader
	max int64
	buf []byte // unread remainder of the current frame
	err error  // sticky: set once the stream position is unrecoverable
}

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

// fill reads the next frame header and body into buf. An error before the
// first header byte (clean close, recv timeout with nothing consumed) is
// returned as-is and is NOT sticky: the stream is still aligned and a
// later Recv may proceed. Any failure after the first byte poisons the
// reader — the position inside the stream is lost — and never matches
// ErrTimeout (see midFrame).
func (f *frameLimitReader) fill() error {
	var hdr [9]byte
	if _, err := io.ReadFull(f.r, hdr[:1]); err != nil {
		return err
	}
	hlen, size := 1, int64(hdr[0])
	if hdr[0] > 0x7f {
		// gob encodes uints >= 128 as (256 - byteCount) followed by the
		// value in big-endian bytes.
		n := 256 - int(hdr[0])
		if n < 1 || n > 8 {
			f.err = fmt.Errorf("transport: corrupt gob frame header byte 0x%02x", hdr[0])
			return f.err
		}
		if _, err := io.ReadFull(f.r, hdr[1:1+n]); err != nil {
			f.err = fmt.Errorf("transport: truncated gob frame header: %w", midFrame(err))
			return f.err
		}
		hlen += n
		size = 0
		for _, b := range hdr[1:hlen] {
			if size > math.MaxInt64>>8 {
				size = math.MaxInt64
				break
			}
			size = size<<8 | int64(b)
		}
	}
	if size > f.max {
		f.err = fmt.Errorf("%w: frame declares %d bytes, limit %d", ErrTooLarge, size, f.max)
		return f.err
	}
	// Buffer the header back in front of the body: the gob decoder parses
	// the length prefix itself, so the stream it sees must be byte-exact.
	frame := make([]byte, hlen+int(size))
	copy(frame, hdr[:hlen])
	if _, err := io.ReadFull(f.r, frame[hlen:]); err != nil {
		f.err = fmt.Errorf("transport: truncated gob frame: %w", midFrame(err))
		return f.err
	}
	f.buf = frame
	return nil
}

func (f *frameLimitReader) Read(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	for len(f.buf) == 0 {
		if err := f.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, f.buf)
	f.buf = f.buf[n:]
	return n, nil
}

func (f *frameLimitReader) ReadByte() (byte, error) {
	if f.err != nil {
		return 0, f.err
	}
	for len(f.buf) == 0 {
		if err := f.fill(); err != nil {
			return 0, err
		}
	}
	b := f.buf[0]
	f.buf = f.buf[1:]
	return b, nil
}

// tcpConn adapts a net.Conn to the Conn interface with gob framing. The
// gob streams run through counting wrappers, so Stats reports true wire
// bytes (framing, type descriptors and all) rather than the payload
// approximation the in-memory transport uses.
type tcpConn struct {
	nc        net.Conn
	enc       *gob.Encoder
	dec       *gob.Decoder
	sendMu    sync.Mutex
	recvMu    sync.Mutex
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

// WrapNetConn turns any net.Conn into a transport Conn (gob-framed) with
// the DefaultMaxMessage inbound frame limit.
func WrapNetConn(nc net.Conn) Conn {
	return WrapNetConnLimit(nc, DefaultMaxMessage)
}

// WrapNetConnLimit is WrapNetConn with an explicit inbound frame size
// limit in bytes; maxMessage <= 0 selects DefaultMaxMessage.
func WrapNetConnLimit(nc net.Conn, maxMessage int64) Conn {
	if maxMessage <= 0 {
		maxMessage = DefaultMaxMessage
	}
	c := &tcpConn{nc: nc}
	c.enc = gob.NewEncoder(countingWriter{w: nc, n: &c.stats.bytesSent})
	c.dec = gob.NewDecoder(&frameLimitReader{
		r:   countingReader{r: nc, n: &c.stats.bytesRecv},
		max: maxMessage,
	})
	return c
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

// Send implements Conn. Byte accounting happens in the counting writer
// under the gob encoder; only the message count is bumped here.
func (c *tcpConn) Send(m Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.armDeadline(c.nc.SetWriteDeadline)
	if err := c.enc.Encode(m); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return fmt.Errorf("transport: tcp send: %w", ErrTimeout)
		}
		return fmt.Errorf("transport: tcp send: %w", err)
	}
	c.stats.msgsSent.Add(1)
	return nil
}

// Recv implements Conn. Byte accounting happens in the counting reader
// under the gob decoder; only the message count is bumped here.
//
// Error mapping mirrors the in-memory transport: an orderly peer shutdown
// between messages surfaces as bare io.EOF; a timeout surfaces as an
// error matching ErrTimeout; everything else is wrapped with recv
// context.
func (c *tcpConn) Recv() (Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	c.armDeadline(c.nc.SetReadDeadline)
	var m Message
	if err := c.dec.Decode(&m); err != nil {
		switch {
		case err == io.EOF:
			// Clean close at a message boundary — parity with chanConn.
			return Message{}, io.EOF
		case errors.Is(err, os.ErrDeadlineExceeded):
			return Message{}, fmt.Errorf("transport: tcp recv: %w", ErrTimeout)
		default:
			return Message{}, fmt.Errorf("transport: tcp recv: %w", err)
		}
	}
	c.stats.msgsRecv.Add(1)
	return m, nil
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
