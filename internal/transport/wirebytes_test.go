package transport

import (
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// tcpPair connects a TCP client/server conn pair over the loopback.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	errs := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errs <- err
			return
		}
		accepted <- c
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case server := <-accepted:
		t.Cleanup(func() { client.Close(); server.Close() })
		return client, server
	case err := <-errs:
		t.Fatal(err)
		return nil, nil
	}
}

// The TCP transport must account the bytes that actually cross the wire:
// the frame header and all — strictly more than the payload's
// len(Type)+len(Body), exactly FrameSize per frame, identical on both
// ends of the link, and what the in-memory transport counts for the same
// messages.
func TestTCPWireBytesExceedPayloadBytes(t *testing.T) {
	client, server := tcpPair(t)

	memA, memB := Pair()
	defer memA.Close()
	defer memB.Close()

	const rounds = 5
	var framed, payload int64
	for i := 0; i < rounds; i++ {
		m := Message{Type: "bulk", Body: make([]byte, 1000+i), Session: uint64(i) << 7}
		if i == rounds-1 {
			m.Body = nil // a bodyless control frame costs its header and tag
		}
		framed += int64(m.FrameSize())
		payload += int64(m.Size())
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := memA.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := memB.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	tcpSent := client.Stats().BytesSent()
	if tcpSent <= payload {
		t.Errorf("tcp wire bytes (%d) not greater than payload bytes (%d): framing overhead vanished", tcpSent, payload)
	}
	if memSent := memA.Stats().BytesSent(); memSent != tcpSent {
		t.Errorf("in-memory link counted %d bytes, tcp %d", memSent, tcpSent)
	}
	// Both ends of the TCP link have seen the same stream, so the
	// sender's wire-byte count and the receiver's must agree exactly.
	if got := server.Stats().BytesRecv(); got != tcpSent {
		t.Errorf("receiver counted %d wire bytes, sender %d", got, tcpSent)
	}
	if tcpSent != framed {
		t.Errorf("sender counted %d wire bytes, want Σ(header+type+body) = %d", tcpSent, framed)
	}
	// Replies flow the other way with the same properties.
	if err := server.Send(Message{Type: "reply", Body: make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recv(); err != nil {
		t.Fatal(err)
	}
	if client.Stats().BytesRecv() != server.Stats().BytesSent() {
		t.Errorf("reply direction disagrees: client recv %d, server sent %d",
			client.Stats().BytesRecv(), server.Stats().BytesSent())
	}
}

// TestTCPRecvOneBuffer pins the receive path's allocation: a 64 KiB
// message crosses a link with one buffer for its type tag and body, not
// one copy per decoding layer.
func TestTCPRecvOneBuffer(t *testing.T) {
	p1, p2 := net.Pipe()
	sender, receiver := WrapNetConn(p1), WrapNetConn(p2)
	defer sender.Close()
	defer receiver.Close()
	m := Message{Type: "bulk", Body: make([]byte, 64<<10)}
	roundTrip := func() {
		errs := make(chan error, 1)
		go func() { errs <- sender.Send(m) }()
		if _, err := receiver.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm up: first-use allocations are not per message
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	perMsg := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.25 * float64(len(m.Body)); perMsg > limit {
		t.Errorf("send+recv of a %d-byte body allocated %.0f B, want at most %.0f B", len(m.Body), perMsg, limit)
	}
}

// Stats accessors must be safe to read while Send/Recv are live on the
// same endpoint — the telemetry exporters poll them mid-protocol. Run
// with -race.
func TestStatsConcurrentReads(t *testing.T) {
	for name, mk := range map[string]func(t *testing.T) (Conn, Conn){
		"chan": func(t *testing.T) (Conn, Conn) {
			a, b := Pair()
			t.Cleanup(func() { a.Close(); b.Close() })
			return a, b
		},
		"tcp": tcpPair,
	} {
		t.Run(name, func(t *testing.T) {
			a, b := mk(t)
			const n = 200
			var wg sync.WaitGroup
			wg.Add(3)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := a.Send(Message{Type: "m", Body: make([]byte, 32)}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := b.Recv(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				var last int64
				for i := 0; i < 1000; i++ {
					v := a.Stats().BytesSent() + b.Stats().BytesRecv() +
						a.Stats().MsgsSent() + b.Stats().MsgsRecv()
					if v < last {
						t.Errorf("stats went backwards: %d -> %d", last, v)
						return
					}
					last = v
				}
			}()
			wg.Wait()
		})
	}
}

// Every message queued before the peer closed must be drainable, in
// order, before Recv reports EOF — not just the first one.
func TestPairDrainsAllQueuedAfterPeerClose(t *testing.T) {
	a, b := Pair()
	defer b.Close()
	const queued = 7
	for i := 0; i < queued; i++ {
		if err := a.Send(Message{Type: "pre", Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	for i := 0; i < queued; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		if m.Type != "pre" || int(m.Body[0]) != i {
			t.Fatalf("drain %d: got %q/%v", i, m.Type, m.Body)
		}
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Errorf("after full drain: %v, want EOF", err)
	}
	if got := b.Stats().MsgsRecv(); got != queued {
		t.Errorf("drained msgs counted = %d, want %d", got, queued)
	}
}

// A frame's width is closed-form in its session id, its type tag's
// length t and its body's length b: one opcode byte, vlen(sid) + vlen(t)
// + vlen(b), then t + b. A data frame of session 0 with a 5-byte tag and
// a 100-byte body is 109 bytes; a tagless, bodyless control frame of a
// session id below 128 is 4.
func TestFrameWidthClosedForm(t *testing.T) {
	client, server := tcpPair(t)
	vlen := func(n uint64) int64 {
		w := int64(1)
		for ; n >= 0x80; n >>= 7 {
			w++
		}
		return w
	}
	for _, c := range []struct {
		op            Op
		sid           uint64
		typeLen, body int
		pinned        int64 // 0: not pinned
	}{
		{OpData, 0, 5, 100, 109},
		{OpOpen, 1, 0, 0, 4},
		{OpData, 127, 16, 127, 0},
		{OpData, 128, 128, 128, 0},
		{OpData, 1 << 40, 300, 20000, 0},
		{OpClose, ^uint64(0), 0, 0, 0},
		{OpReject, 2, 13, 0, 0},
	} {
		m := Message{Op: c.op, Session: c.sid, Type: strings.Repeat("t", c.typeLen), Body: make([]byte, c.body)}
		want := 1 + vlen(c.sid) + vlen(uint64(c.typeLen)) + vlen(uint64(c.body)) + int64(c.typeLen+c.body)
		sent, recv := client.Stats().BytesSent(), server.Stats().BytesRecv()
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != m.Op || got.Session != m.Session || got.Type != m.Type || len(got.Body) != len(m.Body) {
			t.Errorf("%+v: received op %d session %d tag %q body %d", c, got.Op, got.Session, got.Type, len(got.Body))
		}
		dSent, dRecv := client.Stats().BytesSent()-sent, server.Stats().BytesRecv()-recv
		if dSent != want || dRecv != want || int64(m.FrameSize()) != want || c.pinned != 0 && want != c.pinned {
			t.Errorf("%+v: sent %d, received %d, FrameSize %d; closed form %d, pinned %d", c, dSent, dRecv, m.FrameSize(), want, c.pinned)
		}
	}
}
