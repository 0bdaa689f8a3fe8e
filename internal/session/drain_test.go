package session

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
)

// TestServerGracefulDrain pins the shutdown contract: after Shutdown
// begins, new session opens are refused with a typed ErrDraining while
// the in-flight session runs to completion, and Shutdown returns only
// once it has.
func TestServerGracefulDrain(t *testing.T) {
	snap := testutil.Snapshot()
	defer testutil.CheckGoroutines(t, snap)

	reg := telemetry.NewRegistry()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := &Server{
		Handler: func(c transport.Conn) error {
			started <- struct{}{}
			<-release
			return echoHandler(c)
		},
		Telemetry: reg,
		Logf:      t.Logf,
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	conn, err := transport.Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	mux := NewMux(conn, Config{})
	defer func() {
		if err := mux.Close(); err != nil {
			t.Logf("mux close: %v", err)
		}
	}()

	inflight, err := mux.Open()
	if err != nil {
		t.Fatalf("open in-flight session: %v", err)
	}
	inflight.SetTimeout(5 * time.Second)
	if err := inflight.Send(transport.Message{Type: "held"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight session never reached the handler")
	}

	// Begin the drain: close the listener (Serve returns nil), then
	// Shutdown with a generous deadline.
	if err := l.Close(); err != nil {
		t.Fatalf("close listener: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v, want nil on closed listener", err)
	}
	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(ctx) }()

	// Wait until the drain flag is visible, then try to open a new
	// session on the still-live link: it must be refused with
	// ErrDraining, typed end to end.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(time.Millisecond)
	}
	rejected, err := mux.Open()
	if err != nil {
		t.Fatalf("open during drain: %v (the refusal arrives async)", err)
	}
	rejected.SetTimeout(5 * time.Second)
	if _, err := rejected.Recv(); !errors.Is(err, ErrDraining) {
		t.Fatalf("recv on drained session: %v, want ErrDraining", err)
	}

	// Shutdown must still be waiting on the in-flight session.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned %v before the in-flight session finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Let the in-flight session finish; the handler echoes until EOF.
	close(release)
	if _, err := recvType(inflight, "held"); err != nil {
		t.Fatalf("in-flight echo during drain: %v", err)
	}
	if err := inflight.Close(); err != nil {
		t.Fatalf("close in-flight session: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v, want nil (drain completed in time)", err)
	}

	if got := reg.Counter("sessions_drained").Value(); got < 1 {
		t.Errorf("sessions_drained = %d, want >= 1", got)
	}
	if got := reg.Counter("sessions_rejected_draining").Value(); got < 1 {
		t.Errorf("sessions_rejected_draining = %d, want >= 1", got)
	}
	if got := reg.Counter("sessions_completed").Value(); got < 1 {
		t.Errorf("sessions_completed = %d, want >= 1", got)
	}
}

// TestServerDrainDeadline pins the force-close arm: when the drain
// deadline expires with a session still in flight, Shutdown closes the
// physical links (failing the stuck session with a typed link error)
// and reports ctx.Err().
func TestServerDrainDeadline(t *testing.T) {
	snap := testutil.Snapshot()
	defer testutil.CheckGoroutines(t, snap)

	srv := &Server{
		// The handler parks on the session itself, so the force-close
		// is what unblocks it.
		Handler: echoHandler,
		Logf:    t.Logf,
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	conn, err := transport.Dial(l.Addr())
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
	st.SetTimeout(5 * time.Second)
	if err := st.Send(transport.Message{Type: "stuck"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := recvType(st, "stuck"); err != nil {
		t.Fatalf("echo: %v", err)
	}

	if err := l.Close(); err != nil {
		t.Fatalf("close listener: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = testutil.WithinDeadline(t, 5*time.Second, func() error {
		return srv.Shutdown(ctx)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown past deadline: %v, want context.DeadlineExceeded", err)
	}
	// The force-close reached the client: the session fails promptly
	// with a typed error instead of hanging.
	if _, err := st.Recv(); err == nil {
		t.Fatal("recv on force-closed session succeeded, want error")
	}
}
