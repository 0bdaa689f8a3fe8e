package session

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/secmediation/secmediation/internal/transport"
)

// The mux frame header is transport.Message's own: the opcode (Op) and
// the session id (Session), which a TCP link encodes in its frame header,
// so the per-link wire-byte accounting automatically includes the mux
// overhead. A data frame's Type and Body are the session message's,
// verbatim; a reject frame's Type is the reject reason; open and close
// frames carry neither. Session ids are never 0 (the opener's ids are
// odd, the server's even), so a frame of session 0 is not a mux frame.

// Reject-frame reasons. An overload reject may append a retry-after
// hint in whole milliseconds ("overloaded:250"); a draining reject
// means the server is shutting down and the session should be retried
// elsewhere (or later), not treated as a failure.
const (
	rejectOverloaded = "overloaded"
	rejectDraining   = "draining"
)

// rejectReason renders the reject-frame reason field, appending the
// retry-after hint (rounded up to whole milliseconds) when positive.
func rejectReason(base string, hint time.Duration) string {
	if hint <= 0 {
		return base
	}
	ms := int64((hint + time.Millisecond - 1) / time.Millisecond)
	return base + ":" + strconv.FormatInt(ms, 10)
}

// parseReject maps a reject-frame reason back to the typed error the
// opener's operations surface. Unknown reasons (newer peers, mangled
// frames) degrade to the overload shape — still typed, still
// retryable.
func parseReject(sid uint64, reason string) error {
	base, hintStr, _ := strings.Cut(reason, ":")
	if base == rejectDraining {
		return fmt.Errorf("session %d refused by peer: %w", sid, ErrDraining)
	}
	err := fmt.Errorf("session %d refused by peer: %w", sid, ErrOverloaded)
	if ms, perr := strconv.ParseInt(hintStr, 10, 64); perr == nil && ms > 0 {
		return &retryHintError{err: err, hint: time.Duration(ms) * time.Millisecond}
	}
	return err
}

// retryHintError decorates a reject error with the server-supplied
// retry-after hint. It is matched structurally (errors.As on an
// interface with RetryAfter) by internal/resilience, which keeps this
// package free of a dependency on the orchestrator.
type retryHintError struct {
	err  error
	hint time.Duration
}

func (e *retryHintError) Error() string { return e.err.Error() }
func (e *retryHintError) Unwrap() error { return e.err }

// RetryAfter returns the peer's suggested backoff before retrying.
func (e *retryHintError) RetryAfter() time.Duration { return e.hint }

// isMuxFrame reports whether a frame carries a session — the Server's
// check of a link's first frame.
func isMuxFrame(m transport.Message) bool {
	return m.Session != 0
}

// dataFrame wraps a session message into a mux data frame. The body is
// shared, not copied: frames carry already-encoded payloads.
//
// seclint:wire wraps an already-encoded payload body for the shared link
func dataFrame(sid uint64, m transport.Message) transport.Message {
	return transport.Message{Op: transport.OpData, Session: sid, Type: m.Type, Body: m.Body}
}

// controlFrame builds a bodyless open/close/reject frame; reason is the
// type tag of a reject.
func controlFrame(op transport.Op, sid uint64, reason string) transport.Message {
	return transport.Message{Op: op, Session: sid, Type: reason}
}

// unwrapData recovers the session message from a data frame.
func unwrapData(frame transport.Message) transport.Message {
	return transport.Message{Type: frame.Type, Body: frame.Body}
}
