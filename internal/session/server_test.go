package session

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
)

// echoHandler serves one session: echo every message until the peer
// closes.
func echoHandler(c transport.Conn) error {
	for {
		m, err := c.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if err := c.Send(m); err != nil {
			return err
		}
	}
}

// flakyAcceptor fails a fixed number of times before reporting a closed
// listener.
type flakyAcceptor struct {
	failures int
	calls    int
}

func (f *flakyAcceptor) Accept() (transport.Conn, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, fmt.Errorf("transport: accept: %w", errors.New("transient fault"))
	}
	return nil, fmt.Errorf("transport: accept: %w", net.ErrClosed)
}

// TestServerAcceptBackoff checks the satellite fix: transient accept
// errors retry with capped exponential backoff (and a telemetry
// counter) instead of killing the serve loop, and a closed listener
// ends it cleanly.
func TestServerAcceptBackoff(t *testing.T) {
	reg := telemetry.NewRegistry()
	var sleeps []time.Duration
	srv := &Server{
		Handler:   echoHandler,
		Telemetry: reg,
		sleep:     func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	err := testutil.WithinDeadline(t, 2*time.Second, func() error {
		return srv.Serve(&flakyAcceptor{failures: 8})
	})
	if err != nil {
		t.Fatalf("serve: %v (closed listener should end the loop cleanly)", err)
	}
	if len(sleeps) != 8 {
		t.Fatalf("slept %d times, want 8", len(sleeps))
	}
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second, // capped
	}
	for i, d := range want {
		if sleeps[i] != d {
			t.Fatalf("backoff %d = %v, want %v (full schedule %v)", i, sleeps[i], d, sleeps)
		}
	}
	if got := reg.Counter("accept_errors").Value(); got != 8 {
		t.Fatalf("accept_errors = %d, want 8", got)
	}
}

// startServer runs a Server on an ephemeral TCP listener and tears it
// down (leak-checked) at test end.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	snap := testutil.Snapshot()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := l.Close(); err != nil {
			t.Logf("listener close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned %v, want nil on closed listener", err)
		}
		testutil.CheckGoroutines(t, snap)
	})
	return l.Addr()
}

// TestServerMultiplexedSessions drives several concurrent sessions over
// one TCP link against a live Server.
func TestServerMultiplexedSessions(t *testing.T) {
	reg := telemetry.NewRegistry()
	addr := startServer(t, &Server{Handler: echoHandler, Telemetry: reg, Logf: t.Logf})

	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	mux := NewMux(conn, Config{})
	defer func() {
		if err := mux.Close(); err != nil {
			t.Logf("mux close: %v", err)
		}
	}()

	const sessions = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := mux.Open()
			if err != nil {
				errs <- err
				return
			}
			defer st.Close()
			st.SetTimeout(5 * time.Second)
			typ := fmt.Sprintf("ping.%d", i)
			if err := st.Send(transport.Message{Type: typ, Body: []byte("x")}); err != nil {
				errs <- err
				return
			}
			if _, err := recvType(st, typ); err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerRefusesPlainLink checks that a link whose first frame is
// not a mux frame is closed unserved — the handler never runs — and that
// the server goes on serving multiplexed links.
func TestServerRefusesPlainLink(t *testing.T) {
	var handled atomic.Int64
	addr := startServer(t, &Server{
		Handler: func(c transport.Conn) error {
			handled.Add(1)
			return echoHandler(c)
		},
		Logf: t.Logf,
	})
	plain, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer plain.Close()
	plain.SetTimeout(5 * time.Second)
	if err := plain.Send(transport.Message{Type: "plain.0"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if m, err := plain.Recv(); err == nil || errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("plain link: recv = %q, %v; want the link closed", m.Type, err)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times for a plain link, want 0", n)
	}

	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	mux := NewMux(conn, Config{})
	defer func() {
		if err := mux.Close(); err != nil {
			t.Logf("mux close: %v", err)
		}
	}()
	st, err := mux.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	st.SetTimeout(5 * time.Second)
	sendFrame(t, st, "ping", "x")
	if _, err := recvType(st, "ping"); err != nil {
		t.Fatalf("multiplexed session after a refused plain link: %v", err)
	}
	if n := handled.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
}

// TestServerRefusesOtherFormat checks that a peer writing frames of
// another format — here a mux open in the previous format, a 6-byte
// header and the textual tag "mux.o.1" — is refused at its first frame:
// the link is closed unserved and the handler never runs.
func TestServerRefusesOtherFormat(t *testing.T) {
	var handled atomic.Int64
	addr := startServer(t, &Server{
		Handler: func(c transport.Conn) error {
			handled.Add(1)
			return echoHandler(c)
		},
		Logf: t.Logf,
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(append([]byte{0, 7, 0, 0, 0, 0}, "mux.o.1"...)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if n, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a link of another format = %d bytes, %v; want the link closed", n, err)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times for a link of another format, want 0", n)
	}
}

// TestServerGateReject checks cross-link admission control: with every
// slot busy and no wait queue, a new session is refused with a typed
// ErrOverloaded reaching the opener, and admitted work is unaffected.
func TestServerGateReject(t *testing.T) {
	reg := telemetry.NewRegistry()
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	handler := func(c transport.Conn) error {
		started <- struct{}{}
		<-release
		return echoHandler(c)
	}
	addr := startServer(t, &Server{
		Handler:   handler,
		Gate:      NewGate(1, 0, reg),
		Telemetry: reg,
		Logf:      t.Logf,
	})

	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	mux := NewMux(conn, Config{})
	defer func() {
		if err := mux.Close(); err != nil {
			t.Logf("mux close: %v", err)
		}
	}()

	first, err := mux.Open()
	if err != nil {
		t.Fatalf("open first: %v", err)
	}
	defer first.Close()
	first.SetTimeout(5 * time.Second)
	if err := first.Send(transport.Message{Type: "hold"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first session never reached the handler")
	}

	second, err := mux.Open()
	if err != nil {
		t.Fatalf("open second: %v", err)
	}
	defer second.Close()
	second.SetTimeout(5 * time.Second)
	if _, err := second.Recv(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated open: %v, want ErrOverloaded", err)
	}
	if got := reg.Counter("sessions_rejected").Value(); got != 1 {
		t.Fatalf("sessions_rejected = %d, want 1", got)
	}

	// Admitted session completes once released.
	close(release)
	if _, err := recvType(first, "hold"); err != nil {
		t.Fatalf("first session after reject of second: %v", err)
	}
}
