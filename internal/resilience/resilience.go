// Package resilience is the query-lifecycle fault-recovery layer of the
// mediation system. It decides, for every failure a query can hit, one
// question — is this worth another attempt? — and acts on the answer:
//
//   - Classification (Retryable): dial failures, timeouts, overload and
//     drain rejects, and link death mid-phase are transient — a fresh
//     attempt against a recovered (or different) peer can succeed.
//     Corrupt frames, protocol violations and oversized messages are
//     terminal — retrying replays the same deterministic failure.
//
//   - The retry orchestrator (Do) runs an operation under a Policy:
//     capped seeded-jitter backoff between attempts, a server-supplied
//     retry-after hint honored on overload rejects, an optional elapsed
//     budget, and a client-generated query ID + attempt number handed to
//     every attempt so sources can discard stale partial state from
//     abandoned attempts.
//
//   - Per-peer circuit breakers (Breaker, BreakerSet) sit in front of
//     redials: enough failures trip the peer open and further attempts
//     fast-fail with a typed ErrCircuitOpen (itself retryable — the
//     orchestrator backs off without burning a dial timeout) until the
//     open timeout admits a half-open probe. BreakerSet satisfies
//     session.DialGovernor, so it plugs straight into session.Pool.
//
// The package handles only errors and timing — no payloads, keys or
// relation data flow through it.
package resilience

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"syscall"
	"time"

	"github.com/secmediation/secmediation/internal/session"
	"github.com/secmediation/secmediation/internal/transport"
)

// ErrCircuitOpen reports a fast-fail: the peer's circuit breaker is
// open, so the attempt was refused without touching the network. Match
// with errors.Is. It classifies as retryable — the orchestrator's
// backoff naturally spaces attempts across the breaker's open window.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// ErrRetriesExhausted reports that Do ran out of attempts (or budget)
// with every failure retryable; the last attempt's error stays on the
// chain. Match with errors.Is.
var ErrRetriesExhausted = errors.New("resilience: retries exhausted")

// Retryable reports whether a fresh attempt at the failed operation can
// plausibly succeed. Retryable: circuit-open fast-fails, timeouts,
// overload and drain rejects, closed/killed links (EOF, reset, refused
// dial), mux teardown, and anything marked transient at its origin
// (a Transient() bool method on the chain — the mediation layer uses
// this to keep retryability across party boundaries, where error
// chains flatten to strings). Terminal: oversized frames
// (transport.ErrTooLarge — deterministic, a retry resends the same
// bytes), and everything unrecognized — corrupt frames, protocol
// violations, policy denials. Unknown errors default to terminal so a
// genuine protocol bug is surfaced, not hammered.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	// ErrTooLarge wins over the net.Error check below: the TCP
	// transport's oversized-frame error is typed on the same chain a
	// net path could otherwise claim.
	if errors.Is(err, transport.ErrTooLarge) {
		return false
	}
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) && tr.Transient() {
		return true
	}
	switch {
	case errors.Is(err, ErrCircuitOpen),
		errors.Is(err, transport.ErrTimeout),
		errors.Is(err, transport.ErrIntegrity),
		errors.Is(err, session.ErrOverloaded),
		errors.Is(err, session.ErrDraining),
		errors.Is(err, session.ErrMuxClosed),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, net.ErrClosed):
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// MarkTransient wraps err so Retryable reports true for it (and for
// anything wrapping the result). The mediation layer applies it when
// reconstructing a peer's error from a wire notification whose origin
// flagged the failure transient. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// RetryAfter extracts a server-supplied backoff hint from an error
// chain (a RetryAfter() time.Duration method — overload rejects from a
// draining-aware session.Server carry one). ok is false when no
// positive hint is present.
func RetryAfter(err error) (hint time.Duration, ok bool) {
	var h interface{ RetryAfter() time.Duration }
	if errors.As(err, &h) {
		if d := h.RetryAfter(); d > 0 {
			return d, true
		}
	}
	return 0, false
}

// NewQueryID returns a fresh client-generated query identifier: 16 hex
// characters of OS randomness. It tags every attempt of one logical
// query so sources recognize — and discard partial state from — stale
// attempts the client has already abandoned.
func NewQueryID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it does,
		// queries must not silently share IDs.
		panic("resilience: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
