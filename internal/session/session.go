// Package session is the multi-tenant session layer of the mediation
// system: it multiplexes many concurrent protocol sessions over one
// physical transport link per peer, so a long-lived mediator can serve
// overlapping queries from many clients without dialing (or accepting) a
// fresh TCP connection per query.
//
// The layer has four pieces:
//
//   - A Mux turns one transport.Conn into many virtual links. Each frame
//     carries a session ID and an opcode (open/data/close/reject) in the
//     message type header; payload bodies travel untouched, so the
//     transport frame underneath never re-encodes them. Open and Accept
//     return *Stream values satisfying transport.Conn — every protocol
//     in internal/mediation runs over a session unchanged.
//
//   - A Gate is the admission controller: a bounded semaphore with a
//     bounded wait queue. When both are full, new sessions are rejected
//     with ErrOverloaded instead of stacking goroutines — a saturated
//     party degrades gracefully and the client sees a typed error it can
//     back off on.
//
//   - A Server is the long-lived serve loop mediator and datasources
//     run: it survives transient Accept failures with capped backoff
//     (never log.Fatalf), serves every inbound link as a multiplexed link
//     (a link whose first frame is not a mux frame is closed unserved),
//     applies the Gate, and runs one handler per session with
//     per-session traffic telemetry.
//
//   - A Pool keeps one persistent multiplexed link per dialed peer:
//     Open returns a fresh session over the cached link, dialing only on
//     first use and redialing transparently when a link dies. The
//     mediator's per-relation routes are Pool-backed, so a thousand
//     queries against the same two sources cost one TCP dial each, not a
//     thousand.
//
// Failure isolation: a fault that corrupts or loses a single frame
// damages only the session the frame belongs to — that session aborts
// with a typed error while sibling sessions on the same link complete
// (see the chaos suite). A failure of the physical link itself fails
// every session on it, each with the link error.
package session

import (
	"errors"
	"sync/atomic"

	"github.com/secmediation/secmediation/internal/telemetry"
)

// ErrOverloaded reports that the peer (or the local gate) refused a new
// session because its concurrent-session capacity and wait queue are
// exhausted. Match it with errors.Is; clients should back off and retry
// rather than treat it as a protocol failure. The reject may carry a
// server-supplied retry-after hint, surfaced through a RetryAfter()
// method on the wrapping error (see internal/resilience.RetryAfter).
var ErrOverloaded = errors.New("session: overloaded: too many concurrent sessions")

// ErrDraining reports that the peer refused a new session because it is
// shutting down gracefully (Server.Shutdown): in-flight sessions are
// finishing, new ones must go elsewhere. Match it with errors.Is; the
// retry orchestrator (internal/resilience) classifies it retryable.
var ErrDraining = errors.New("session: draining: server is shutting down")

// ErrMuxClosed reports an operation on a mux that was closed locally.
var ErrMuxClosed = errors.New("session: mux closed")

const (
	// queueDepth bounds each session's receive queue (frames demuxed
	// but not yet consumed). When a queue is full the demux loop blocks
	// — backpressure on the shared link — until the session consumes or
	// closes.
	queueDepth = 64
	// acceptBacklog bounds sessions opened by the peer but not yet
	// claimed with Accept. Opens beyond it are rejected with
	// ErrOverloaded; admission control proper is the Server Gate's job.
	acceptBacklog = 64
)

// Config tunes one Mux. The zero value is a valid client-side
// configuration.
type Config struct {
	// Server marks the accept side of the link. The two sides draw
	// session IDs from disjoint parities (client odd, server even), so
	// both may open sessions without coordination.
	Server bool
	// Telemetry optionally counts mux activity (sessions opened,
	// accepted, rejected, discarded frames). Nil records nothing.
	Telemetry *telemetry.Registry
}

// Gate is the admission controller for a Server: at most MaxActive
// sessions run concurrently, at most MaxWaiting more may queue for a
// slot, and everything beyond that is rejected with ErrOverloaded.
// A nil *Gate admits everything. All methods are safe for concurrent
// use.
type Gate struct {
	sem        chan struct{}
	maxWaiting int64
	waiting    atomic.Int64
	reg        *telemetry.Registry
}

// NewGate builds a gate admitting maxActive concurrent sessions with a
// wait queue of maxWaiting. maxActive <= 0 returns a nil gate (no
// admission control). The registry (nil-safe) receives the
// sessions_active and sessions_waiting queue-depth gauges and the
// sessions_rejected counter.
func NewGate(maxActive, maxWaiting int, reg *telemetry.Registry) *Gate {
	if maxActive <= 0 {
		return nil
	}
	if maxWaiting < 0 {
		maxWaiting = 0
	}
	return &Gate{
		sem:        make(chan struct{}, maxActive),
		maxWaiting: int64(maxWaiting),
		reg:        reg,
	}
}

// Acquire claims a session slot, waiting in the bounded queue when all
// slots are busy. It returns ErrOverloaded without blocking once the
// queue is full too. A nil gate admits immediately.
func (g *Gate) Acquire() error {
	if g == nil {
		return nil
	}
	select {
	case g.sem <- struct{}{}:
		g.gauges()
		return nil
	default:
	}
	if g.waiting.Add(1) > g.maxWaiting {
		g.waiting.Add(-1)
		if g.reg.Enabled() {
			g.reg.Counter("sessions_rejected").Add(1)
		}
		return ErrOverloaded
	}
	g.gauges()
	g.sem <- struct{}{}
	g.waiting.Add(-1)
	g.gauges()
	return nil
}

// Release returns a slot claimed with Acquire. Calling it without a
// matching successful Acquire is a programming error.
func (g *Gate) Release() {
	if g == nil {
		return
	}
	<-g.sem
	g.gauges()
}

// Active returns the number of admitted sessions currently running.
func (g *Gate) Active() int {
	if g == nil {
		return 0
	}
	return len(g.sem)
}

// Waiting returns the number of sessions queued for a slot.
func (g *Gate) Waiting() int {
	if g == nil {
		return 0
	}
	return int(g.waiting.Load())
}

// gauges exports the queue depths.
func (g *Gate) gauges() {
	if !g.reg.Enabled() {
		return
	}
	g.reg.Gauge("sessions_active").Set(int64(len(g.sem)))
	g.reg.Gauge("sessions_waiting").Set(g.waiting.Load())
}
