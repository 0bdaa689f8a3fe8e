package transport

import (
	"io"
	"net"
	"testing"
)

// FuzzTCPRecv feeds arbitrary bytes to a TCP receiver with a 4 KiB
// limit. Recv must never panic, never return a message above the limit,
// and, once it fails with anything but io.EOF, keep failing with the
// same error.
func FuzzTCPRecv(f *testing.F) {
	const limit = 4096
	valid := append(frameHeaderBytes(4, 3), "ping"...)
	f.Add(append(valid, 1, 2, 3))
	f.Add(append(frameHeaderBytes(3, 0), "ack"...))
	f.Add(frameHeaderBytes(0, limit+1))
	f.Add(frameHeaderBytes(2, 9)[:3])
	f.Add(append(frameHeaderBytes(1, 9), 't', 1, 2))
	f.Fuzz(func(t *testing.T, stream []byte) {
		p1, p2 := net.Pipe()
		c := WrapNetConnLimit(p2, limit)
		defer c.Close()
		go func() {
			p1.Write(stream)
			p1.Close()
		}()
		var sticky error
		for i := 0; i < 8; i++ {
			m, err := c.Recv()
			switch {
			case sticky != nil:
				if err == nil || err.Error() != sticky.Error() {
					t.Fatalf("recv %d after %v = %v, want the same error", i, sticky, err)
				}
			case err == nil:
				if m.Size() > limit {
					t.Fatalf("recv returned a %d-byte message past the %d-byte limit", m.Size(), limit)
				}
			case err == io.EOF:
				return
			default:
				sticky = err
			}
		}
	})
}
