package session

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
)

// muxPair builds a connected client/server mux over the in-memory
// transport and registers teardown plus a goroutine-leak check.
func muxPair(t *testing.T, clientCfg, serverCfg Config) (*Mux, *Mux) {
	t.Helper()
	snap := testutil.Snapshot()
	a, b := transport.Pair()
	cm := NewMux(a, clientCfg)
	serverCfg.Server = true
	sm := NewMux(b, serverCfg)
	t.Cleanup(func() {
		if err := cm.Close(); err != nil {
			t.Logf("client mux close: %v", err)
		}
		if err := sm.Close(); err != nil {
			t.Logf("server mux close: %v", err)
		}
		testutil.CheckGoroutines(t, snap)
	})
	return cm, sm
}

func sendFrame(t *testing.T, c transport.Conn, typ, body string) {
	t.Helper()
	if err := c.Send(transport.Message{Type: typ, Body: []byte(body)}); err != nil {
		t.Fatalf("send %q: %v", typ, err)
	}
}

// recvType receives the next message and checks its type tag.
func recvType(c transport.Conn, typ string) (transport.Message, error) {
	m, err := c.Recv()
	if err == nil && m.Type != typ {
		err = fmt.Errorf("got message %q, want %q", m.Type, typ)
	}
	return m, err
}

func TestMuxOpenAcceptEcho(t *testing.T) {
	cm, sm := muxPair(t, Config{}, Config{})
	st, err := cm.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if st.SessionID()%2 != 1 {
		t.Fatalf("client session ID %d: want odd", st.SessionID())
	}
	sendFrame(t, st, "ping", "hello")

	srv, err := sm.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	if srv.SessionID() != st.SessionID() {
		t.Fatalf("session IDs disagree: %d vs %d", srv.SessionID(), st.SessionID())
	}
	m, err := recvType(srv, "ping")
	if err != nil {
		t.Fatalf("server expect: %v", err)
	}
	if string(m.Body) != "hello" {
		t.Fatalf("body %q, want hello", m.Body)
	}
	sendFrame(t, srv, "pong", "world")
	m, err = recvType(st, "pong")
	if err != nil {
		t.Fatalf("client expect: %v", err)
	}
	if string(m.Body) != "world" {
		t.Fatalf("body %q, want world", m.Body)
	}
}

func TestMuxBidirectionalOpen(t *testing.T) {
	cm, sm := muxPair(t, Config{}, Config{})
	c1, err := cm.Open()
	if err != nil {
		t.Fatalf("client open: %v", err)
	}
	s1, err := sm.Open()
	if err != nil {
		t.Fatalf("server open: %v", err)
	}
	if c1.SessionID() == s1.SessionID() {
		t.Fatalf("ID collision across roles: %d", c1.SessionID())
	}
	if s1.SessionID()%2 != 0 {
		t.Fatalf("server session ID %d: want even", s1.SessionID())
	}
	sendFrame(t, s1, "srv.hi", "")
	got, err := cm.Accept()
	if err != nil {
		t.Fatalf("client accept: %v", err)
	}
	if _, err := recvType(got, "srv.hi"); err != nil {
		t.Fatalf("expect: %v", err)
	}
}

// TestMuxConcurrentSessions runs several sessions at once and checks
// message streams stay isolated and ordered per session.
func TestMuxConcurrentSessions(t *testing.T) {
	cm, sm := muxPair(t, Config{}, Config{})
	const sessions, msgs = 8, 20

	// Server: echo every message back on its own session.
	go func() {
		for {
			st, err := sm.Accept()
			if err != nil {
				return
			}
			go func() {
				defer st.Close()
				for {
					m, err := st.Recv()
					if err != nil {
						return
					}
					if err := st.Send(m); err != nil {
						return
					}
				}
			}()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := cm.Open()
			if err != nil {
				errs <- err
				return
			}
			defer st.Close()
			for j := 0; j < msgs; j++ {
				want := fmt.Sprintf("s%d.m%d", i, j)
				if err := st.Send(transport.Message{Type: want}); err != nil {
					errs <- fmt.Errorf("session %d send: %w", i, err)
					return
				}
				m, err := st.Recv()
				if err != nil {
					errs <- fmt.Errorf("session %d recv: %w", i, err)
					return
				}
				if m.Type != want {
					errs <- fmt.Errorf("session %d: got %q, want %q", i, m.Type, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxCloseDrainsThenEOF checks the orderly-close contract: messages
// sent before Close stay readable, then Recv reports io.EOF.
func TestMuxCloseDrainsThenEOF(t *testing.T) {
	cm, sm := muxPair(t, Config{}, Config{})
	st, err := cm.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sendFrame(t, st, "a", "")
	sendFrame(t, st, "b", "")
	srv, err := sm.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	// Let both data frames reach the peer queue before the close frame
	// race can matter; frames are ordered on the link, so waiting for
	// the first implies the second follows before the close.
	if _, err := recvType(srv, "a"); err != nil {
		t.Fatalf("expect a: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := recvType(srv, "b"); err != nil {
		t.Fatalf("expect b after close: %v", err)
	}
	if _, err := srv.Recv(); err != io.EOF {
		t.Fatalf("recv after drain: %v, want io.EOF", err)
	}
	if err := st.Send(transport.Message{Type: "late"}); err == nil {
		t.Fatal("send on closed session succeeded")
	}
}

// TestMuxPerLinkOverload checks the per-link MaxSessions backstop: the
// peer's reject poisons the excess session with ErrOverloaded while the
// admitted session keeps working.
func TestMuxPerLinkOverload(t *testing.T) {
	cm, sm := muxPair(t, Config{}, Config{MaxSessions: 1})
	first, err := cm.Open()
	if err != nil {
		t.Fatalf("open first: %v", err)
	}
	sendFrame(t, first, "hold", "")
	if _, err := sm.Accept(); err != nil {
		t.Fatalf("accept first: %v", err)
	}

	second, err := cm.Open()
	if err != nil {
		t.Fatalf("open second: %v", err)
	}
	second.SetTimeout(2 * time.Second)
	_, err = second.Recv()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second session recv: %v, want ErrOverloaded", err)
	}
	if err := second.Send(transport.Message{Type: "x"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second session send: %v, want ErrOverloaded", err)
	}
	// The sibling is unaffected.
	if err := first.Send(transport.Message{Type: "still-alive"}); err != nil {
		t.Fatalf("first session send after reject: %v", err)
	}
}

// TestMuxLinkFailure checks that a dead physical link fails every
// session promptly with the link error, and Open refuses afterwards.
func TestMuxLinkFailure(t *testing.T) {
	snap := testutil.Snapshot()
	a, b := transport.Pair()
	cm := NewMux(a, Config{})
	sm := newMux(b, Config{Server: true}, nil)
	defer testutil.CheckGoroutines(t, snap)

	st, err := cm.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sendFrame(t, st, "ping", "")
	srv, err := sm.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	if _, err := recvType(srv, "ping"); err != nil {
		t.Fatalf("expect: %v", err)
	}

	// Kill the client side of the link out from under both muxes.
	if err := cm.Close(); err != nil {
		t.Fatalf("mux close: %v", err)
	}
	err = testutil.WithinDeadline(t, 2*time.Second, func() error {
		_, err := st.Recv()
		return err
	})
	if !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("local stream after close: %v, want ErrMuxClosed", err)
	}
	// The peer sees the link drop as an orderly EOF (chan transport
	// semantics) on its sessions.
	err = testutil.WithinDeadline(t, 2*time.Second, func() error {
		_, err := srv.Recv()
		return err
	})
	if !errors.Is(err, io.EOF) {
		t.Fatalf("peer stream after link death: %v, want io.EOF", err)
	}
	if _, err := cm.Open(); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("open on dead mux: %v, want ErrMuxClosed", err)
	}
	if err := sm.Close(); err != nil {
		t.Logf("server mux close: %v", err)
	}
}

// TestMuxMidFrameTimeoutFailsLink stalls the peer inside a frame on a
// link whose per-operation timeout is armed: the demux loop must fail
// the link with the poisoned-stream error instead of retrying it as
// idleness, so a stream with no timeout of its own is released.
func TestMuxMidFrameTimeoutFailsLink(t *testing.T) {
	snap := testutil.Snapshot()
	defer testutil.CheckGoroutines(t, snap)
	peer, local := net.Pipe()
	defer peer.Close()
	link := transport.WrapNetConn(local)
	link.SetTimeout(50 * time.Millisecond)
	cm := NewMux(link, Config{})
	defer cm.Close()
	go io.Copy(io.Discard, peer) // swallow the open frame and all that follows
	st, err := cm.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	go func() {
		// A length prefix promising 64 bytes, 10 of them, then silence.
		peer.Write([]byte{64})
		peer.Write(make([]byte, 10))
	}()
	err = testutil.WithinDeadline(t, time.Second, func() error {
		_, err := st.Recv()
		return err
	})
	if err == nil || errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("stream on a link stalled mid-frame: %v, want the link error", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("stream on a link stalled mid-frame: %v, want io.ErrUnexpectedEOF on the chain", err)
	}
}

// TestMuxStrayFrames checks that malformed headers and frames for
// unknown or already-closed sessions are discarded without damaging
// live sessions.
func TestMuxStrayFrames(t *testing.T) {
	cm, sm := muxPair(t, Config{}, Config{})
	st, err := cm.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sendFrame(t, st, "ping", "")
	srv, err := sm.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	if _, err := recvType(srv, "ping"); err != nil {
		t.Fatalf("expect: %v", err)
	}

	// Inject junk below the mux: malformed header, unknown session,
	// unknown opcode, close for a session that never existed.
	for _, typ := range []string{
		"not-a-mux-frame",
		"mux.",
		"mux.d.",
		"mux.d.notanumber.x",
		"mux.z.1.x",
		"mux.d.99.ghost",
		"mux.c.97",
		"mux.r.95.overloaded",
	} {
		if err := cm.send(transport.Message{Type: typ}); err != nil {
			t.Fatalf("inject %q: %v", typ, err)
		}
	}
	// The live session still works after all of it.
	sendFrame(t, srv, "pong", "")
	if _, err := recvType(st, "pong"); err != nil {
		t.Fatalf("session damaged by stray frames: %v", err)
	}
}

// TestMuxBackpressure checks bounded buffering: an unread session queue
// blocks the demux loop rather than growing without bound, and unblocks
// once the consumer catches up.
func TestMuxBackpressure(t *testing.T) {
	cm, sm := muxPair(t, Config{}, Config{QueueDepth: 2})
	st, err := cm.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		sendFrame(t, st, fmt.Sprintf("m%d", i), "")
	}
	srv, err := sm.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	srv.SetTimeout(2 * time.Second)
	for i := 0; i < n; i++ {
		if _, err := recvType(srv, fmt.Sprintf("m%d", i)); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
}

// TestMuxRecvTimeout checks the per-stream deadline: an idle session
// reports ErrTimeout while the shared link stays healthy.
func TestMuxRecvTimeout(t *testing.T) {
	cm, sm := muxPair(t, Config{}, Config{})
	st, err := cm.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sendFrame(t, st, "ping", "")
	srv, err := sm.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	if _, err := recvType(srv, "ping"); err != nil {
		t.Fatalf("expect: %v", err)
	}
	st.SetTimeout(30 * time.Millisecond)
	if _, err := st.Recv(); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("idle recv: %v, want ErrTimeout", err)
	}
	// The timeout poisoned nothing: traffic still flows.
	st.SetTimeout(2 * time.Second)
	sendFrame(t, srv, "pong", "")
	if _, err := recvType(st, "pong"); err != nil {
		t.Fatalf("session damaged by timeout: %v", err)
	}
}

// TestMuxStats checks per-session wire attribution: each stream counts
// its own frames (mux header included), and the link's Stats sees the
// combined traffic.
func TestMuxStats(t *testing.T) {
	cm, sm := muxPair(t, Config{}, Config{})
	st, err := cm.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	body := []byte("0123456789")
	sendFrame(t, st, "data", string(body))
	srv, err := sm.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	if _, err := recvType(srv, "data"); err != nil {
		t.Fatalf("expect: %v", err)
	}
	if got := st.Stats().MsgsSent(); got != 1 {
		t.Fatalf("stream msgs sent = %d, want 1", got)
	}
	sent := st.Stats().BytesSent()
	if want := int64(len("data") + len(body)); sent <= want {
		t.Fatalf("stream bytes sent = %d, want > %d (mux header included)", sent, want)
	}
	if got := srv.Stats().BytesRecv(); got != sent {
		t.Fatalf("peer bytes recv = %d, want %d", got, sent)
	}
	// Link-level stats include the open control frame too.
	if link := cm.Stats().BytesSent(); link <= sent {
		t.Fatalf("link bytes sent = %d, want > per-stream %d", link, sent)
	}
}

func TestGateAdmission(t *testing.T) {
	g := NewGate(2, 1, nil)
	if err := g.Acquire(); err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	if err := g.Acquire(); err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if got := g.Active(); got != 2 {
		t.Fatalf("active = %d, want 2", got)
	}

	// Third acquirer parks in the wait queue.
	waited := make(chan error, 1)
	go func() { waited <- g.Acquire() }()
	deadline := time.Now().Add(2 * time.Second)
	for g.Waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("third acquirer never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Fourth overflows the queue: typed reject, no blocking.
	if err := g.Acquire(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow acquire: %v, want ErrOverloaded", err)
	}

	g.Release()
	if err := <-waited; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	g.Release()
	g.Release()
	if got := g.Active(); got != 0 {
		t.Fatalf("active after releases = %d, want 0", got)
	}
}

func TestGateNil(t *testing.T) {
	var g *Gate
	if err := g.Acquire(); err != nil {
		t.Fatalf("nil gate acquire: %v", err)
	}
	g.Release()
	if g.Active() != 0 || g.Waiting() != 0 {
		t.Fatal("nil gate reports occupancy")
	}
	if NewGate(0, 5, nil) != nil {
		t.Fatal("NewGate(0, ...) should disable admission control")
	}
}
