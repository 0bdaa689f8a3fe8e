package resilience

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/session"
	"github.com/secmediation/secmediation/internal/transport"
)

type timeoutNetError struct{}

func (timeoutNetError) Error() string   { return "i/o timeout" }
func (timeoutNetError) Timeout() bool   { return true }
func (timeoutNetError) Temporary() bool { return true }

func TestRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"timeout", fmt.Errorf("recv: %w", transport.ErrTimeout), true},
		{"overloaded", fmt.Errorf("open: %w", session.ErrOverloaded), true},
		{"draining", fmt.Errorf("open: %w", session.ErrDraining), true},
		{"mux closed", session.ErrMuxClosed, true},
		{"circuit open", fmt.Errorf("dial: %w", ErrCircuitOpen), true},
		{"eof", io.EOF, true},
		{"unexpected eof", io.ErrUnexpectedEOF, true},
		{"conn refused", fmt.Errorf("dial: %w", syscall.ECONNREFUSED), true},
		{"conn reset", syscall.ECONNRESET, true},
		{"net closed", net.ErrClosed, true},
		{"net error", &net.OpError{Op: "read", Err: timeoutNetError{}}, true},
		{"marked transient", MarkTransient(errors.New("peer says: timeout")), true},
		{"wrapped transient", fmt.Errorf("query: %w", MarkTransient(errors.New("x"))), true},
		{"too large", fmt.Errorf("recv: %w", transport.ErrTooLarge), false},
		{"protocol violation", errors.New("expected message ack, got junk"), false},
		{"policy denial", errors.New("query denied: insufficient credentials"), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryableMidFrameStall pins that a link poisoned by a deadline
// expiring inside a frame stays retryable — a fresh link can succeed —
// without reading as an idle timeout.
func TestRetryableMidFrameStall(t *testing.T) {
	peer, local := net.Pipe()
	defer peer.Close()
	c := transport.WrapNetConn(local)
	defer c.Close()
	c.SetTimeout(20 * time.Millisecond)
	// A data frame header promising a 64-byte body (format 1 in the first
	// byte's high bits, then session id 0, an empty type tag and the body
	// length), 2 bytes of it, then silence.
	go peer.Write([]byte{1 << 4, 0, 0, 64, 0, 0})
	_, err := c.Recv()
	if errors.Is(err, transport.ErrTimeout) || !Retryable(err) {
		t.Fatalf("mid-frame stall: %v; want a retryable, non-timeout error", err)
	}
}

func TestMarkTransientPreservesChain(t *testing.T) {
	base := errors.New("boom")
	err := MarkTransient(fmt.Errorf("wrap: %w", base))
	if !errors.Is(err, base) {
		t.Fatal("MarkTransient broke the error chain")
	}
	if err.Error() != "wrap: boom" {
		t.Fatalf("Error() = %q, want pass-through", err.Error())
	}
	if MarkTransient(nil) != nil {
		t.Fatal("MarkTransient(nil) != nil")
	}
}

// hinted is an overload reject carrying a retry-after hint, as a
// draining-aware session.Server sends it.
type hinted struct{ d time.Duration }

func (h hinted) Error() string             { return "overloaded" }
func (h hinted) Unwrap() error             { return session.ErrOverloaded }
func (h hinted) RetryAfter() time.Duration { return h.d }

func TestRetryAfter(t *testing.T) {
	if d, ok := RetryAfter(fmt.Errorf("open: %w", hinted{250 * time.Millisecond})); !ok || d != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v, %v; want 250ms, true", d, ok)
	}
	if _, ok := RetryAfter(errors.New("plain")); ok {
		t.Fatal("RetryAfter on a plain error reported a hint")
	}
	if _, ok := RetryAfter(hinted{0}); ok {
		t.Fatal("RetryAfter reported a non-positive hint")
	}
}

func TestNewQueryID(t *testing.T) {
	a, b := NewQueryID(), NewQueryID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("query ID lengths = %d, %d; want 16", len(a), len(b))
	}
	if a == b {
		t.Fatal("two query IDs collided")
	}
}
