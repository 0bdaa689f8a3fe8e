package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"testing"

	"github.com/secmediation/secmediation/internal/codec"
)

type payload struct {
	N    *big.Int
	Name string
	Data []byte
}

// recvType receives the next message and checks its type tag.
func recvType(c Conn, typ string) (Message, error) {
	m, err := c.Recv()
	if err == nil && m.Type != typ {
		err = fmt.Errorf("got message %q, want %q", m.Type, typ)
	}
	return m, err
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	in := payload{N: big.NewInt(123456789), Name: "x", Data: []byte{1, 2, 3}}
	b, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.N.Cmp(in.N) != 0 || out.Name != in.Name || len(out.Data) != 3 {
		t.Errorf("roundtrip mismatch: %+v", out)
	}
}

// blobs is a message with a codec layout.
type blobs [][]byte

func (b blobs) EncodeTo(e *codec.Encoder) { e.ByteStrings(b) }

// A codec message's body is allocated once, at exactly its length: the
// digest, then the bytes of its codec.Marshal.
func TestNewMessageCodecBodyExact(t *testing.T) {
	in := blobs{bytes.Repeat([]byte{7}, 1000), {1, 2, 3}, nil}
	m, err := NewMessage("blobs", in)
	if err != nil {
		t.Fatal(err)
	}
	if cap(m.Body) != len(m.Body) {
		t.Errorf("body has capacity %d for its %d bytes", cap(m.Body), len(m.Body))
	}
	want, err := codec.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Payload(m)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("payload %x (%v), want %x", got, err, want)
	}
}

func TestDecodeError(t *testing.T) {
	var out payload
	if err := Decode([]byte{0xFF, 0x01}, &out); err == nil {
		t.Error("garbage decoded")
	}
}

func TestPairSendRecv(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	msg, err := NewMessage("greet", payload{Name: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := recvType(b, "greet")
	if err != nil {
		t.Fatal(err)
	}
	body, err := Payload(got)
	if err != nil {
		t.Fatal(err)
	}
	var p payload
	if err := Decode(body, &p); err != nil || p.Name != "hello" {
		t.Errorf("recv payload: %+v, %v", p, err)
	}
}

func TestPayloadIntegrity(t *testing.T) {
	msg, err := NewMessage("greet", payload{Name: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	// A flipped payload byte — even one that keeps the gob decodable —
	// must surface as a typed integrity failure, not a wrong decode.
	flipped := msg
	flipped.Body = append([]byte(nil), msg.Body...)
	flipped.Body[len(flipped.Body)-1] ^= 0x01
	if _, err := Payload(flipped); !errors.Is(err, ErrIntegrity) {
		t.Errorf("corrupted body: %v, want ErrIntegrity", err)
	}
	truncated := msg
	truncated.Body = msg.Body[:len(msg.Body)/2]
	if _, err := Payload(truncated); !errors.Is(err, ErrIntegrity) {
		t.Errorf("truncated body: %v, want ErrIntegrity", err)
	}
	if _, err := Payload(Message{Type: "empty"}); !errors.Is(err, ErrIntegrity) {
		t.Errorf("empty body: %v, want ErrIntegrity", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	m := Message{Type: "t", Body: make([]byte, 100)}
	for i := 0; i < 3; i++ {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	// Each message counts at its FrameSize: a 4-byte header, the tag and
	// the body.
	if a.Stats().MsgsSent() != 3 || a.Stats().BytesSent() != 3*105 {
		t.Errorf("sender stats: %d msgs %d bytes", a.Stats().MsgsSent(), a.Stats().BytesSent())
	}
	if b.Stats().MsgsRecv() != 3 || b.Stats().BytesRecv() != 3*105 {
		t.Errorf("receiver stats: %d msgs %d bytes", b.Stats().MsgsRecv(), b.Stats().BytesRecv())
	}
}

func TestClosedPairBehaviour(t *testing.T) {
	a, b := Pair()
	// Messages sent before close are still drainable.
	_ = a.Send(Message{Type: "pre"})
	a.Close()
	if m, err := b.Recv(); err != nil || m.Type != "pre" {
		t.Errorf("drain after close: %v %v", m, err)
	}
	if _, err := b.Recv(); err != io.EOF {
		t.Errorf("recv after peer close = %v, want EOF", err)
	}
	if err := a.Send(Message{Type: "post"}); err == nil {
		t.Error("send on closed conn succeeded")
	}
	if _, err := a.Recv(); err == nil {
		t.Error("recv on closed conn succeeded")
	}
	b.Close()
	if err := b.Close(); err != nil { // idempotent
		t.Errorf("double close: %v", err)
	}
}

func TestPairConcurrent(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	const n = 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Send(Message{Type: "m"}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	got := 0
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := b.Recv(); err != nil {
				t.Error(err)
				return
			}
			got++
		}
	}()
	wg.Wait()
	if got != n {
		t.Errorf("received %d of %d", got, n)
	}
}

func TestTCPRoundtrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		m, err := recvType(c, "ping")
		if err != nil {
			done <- err
			return
		}
		done <- c.Send(Message{Type: "pong", Body: m.Body})
	}()

	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(Message{Type: "ping", Body: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	m, err := recvType(c, "pong")
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Body) != "abc" {
		t.Errorf("pong body = %q", m.Body)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.Stats().MsgsSent() != 1 || c.Stats().MsgsRecv() != 1 {
		t.Error("tcp stats not counted")
	}
}

func TestDialError(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestTCPRecvAfterClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Recv(); err == nil {
		t.Error("recv on closed tcp conn succeeded")
	}
}
