package session

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// Backoff bounds for the accept loop: a transient Accept failure (file
// descriptor exhaustion, a half-open connection reset) is retried, with
// the delay doubling per consecutive failure up to the cap.
const (
	acceptBackoffMin = 50 * time.Millisecond
	acceptBackoffMax = 2 * time.Second
)

// Acceptor is the listener surface a Server consumes;
// *transport.Listener satisfies it.
type Acceptor interface {
	Accept() (transport.Conn, error)
}

// AcceptTimeout wraps an Acceptor so every accepted link comes up with a
// per-operation timeout already armed. This bounds the Server's check of
// the first frame — a peer that connects and never speaks cannot park a
// serve goroutine forever. The multiplexed link tolerates the armed
// timeout when idle (the demux loop treats link-level receive timeouts
// as idleness), and protocol sessions re-arm their own deadlines once
// the request arrives.
func AcceptTimeout(l Acceptor, d time.Duration) Acceptor {
	if d <= 0 {
		return l
	}
	return acceptTimeout{l: l, d: d}
}

type acceptTimeout struct {
	l Acceptor
	d time.Duration
}

func (a acceptTimeout) Accept() (transport.Conn, error) {
	conn, err := a.l.Accept()
	if err != nil {
		return nil, err
	}
	conn.SetTimeout(a.d)
	return conn, nil
}

// Server is the long-lived serve loop a mediator or datasource runs: it
// accepts physical links forever (transient accept errors retry with
// capped backoff instead of killing the process), serves every link as a
// multiplexed link — a link whose first frame is not a mux frame is
// logged and closed — applies Gate admission control, and runs Handler
// once per session with per-session traffic telemetry.
type Server struct {
	// Handler serves one protocol session over one virtual link. The
	// Server closes the conn after Handler returns.
	Handler func(conn transport.Conn) error
	// Gate optionally bounds concurrent sessions across all links. Nil
	// admits everything. Sessions rejected by the gate fail the opener
	// with ErrOverloaded.
	Gate *Gate
	// Telemetry optionally records serve-loop and per-link mux metrics
	// (accept errors, link and session counters, per-session byte
	// histograms). Nil records nothing.
	Telemetry *telemetry.Registry
	// Logf, when set, receives serve-loop diagnostics (accept retries,
	// session failures).
	Logf func(format string, args ...any)
	// RetryAfterHint, when positive, rides on overload rejects as a
	// server-supplied backoff hint: the opener's retry orchestrator
	// (internal/resilience) waits at least this long before re-opening,
	// so a saturated server shapes its own retry load.
	RetryAfterHint time.Duration

	// sleep is the backoff clock; tests shrink it.
	sleep func(time.Duration)
	// links tracks live physical links for the links_active gauge.
	links atomic.Int64
	// draining flips once on Shutdown: new sessions are rejected with
	// ErrDraining while in-flight ones finish.
	draining atomic.Bool
	// sessions tracks in-flight handler invocations for the drain wait.
	sessions atomic.Int64

	connMu sync.Mutex
	conns  map[io.Closer]struct{} // live physical links, force-closed on drain deadline
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of sessions currently inside the Handler.
func (s *Server) InFlight() int { return int(s.sessions.Load()) }

// Shutdown drains the server gracefully: it marks the server draining —
// new sessions (and new links) are refused with a typed ErrDraining
// reject that the opener's retry orchestrator treats as
// retryable-elsewhere — waits for in-flight sessions to finish, then
// closes every remaining physical link so idle persistent peers
// re-dial elsewhere. Callers close their listener before calling
// Shutdown (Serve then returns nil); ctx bounds the drain — when it
// expires, surviving links are closed anyway, aborting whatever still
// rides them, and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.Telemetry.Enabled() {
		s.Telemetry.Gauge("server_draining").Set(1)
	}
	const poll = 5 * time.Millisecond
	for s.sessions.Load() > 0 {
		select {
		case <-ctx.Done():
			s.closeLinks()
			return ctx.Err()
		case <-time.After(poll):
		}
	}
	s.closeLinks()
	return nil
}

// closeLinks force-closes every tracked physical link. Sessions still
// riding one fail with the link error.
func (s *Server) closeLinks() {
	s.connMu.Lock()
	conns := make([]io.Closer, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = nil
	s.connMu.Unlock()
	for _, c := range conns {
		if err := c.Close(); err != nil {
			s.logf("session: drain close link: %v", err)
		}
	}
}

// track registers a live physical link for the drain force-close; it
// reports false when the server is already draining with links swept
// (the caller must close the link itself).
func (s *Server) track(c io.Closer) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining.Load() && s.conns == nil {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[io.Closer]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

// untrack removes a link that closed on its own.
func (s *Server) untrack(c io.Closer) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// Serve accepts links until the listener fails permanently. It returns
// nil when the listener is closed (net.ErrClosed) — the orderly shutdown
// path — and never terminates the process on a transient accept error.
func (s *Server) Serve(l Acceptor) error {
	sleep := s.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	backoff := time.Duration(0)
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			s.count("accept_errors")
			s.logf("session: accept failed (retrying): %v", err)
			if backoff < acceptBackoffMin {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			sleep(backoff)
			continue
		}
		backoff = 0
		s.count("links_accepted")
		go s.serveLink(conn)
	}
}

// serveLink serves one physical link as a multiplexed link carrying many
// sessions. Its first frame must be a mux frame; anything else is a peer
// that does not speak the session layer, and the link is closed unserved.
func (s *Server) serveLink(conn transport.Conn) {
	s.gaugeLinks(1)
	defer s.gaugeLinks(-1)
	first, err := conn.Recv()
	if err != nil || !isMuxFrame(first) {
		// The peer vanished before speaking, or does not speak the mux
		// framing; nothing to serve.
		if err == nil {
			s.logf("session: refusing link: first frame %q is not a mux frame", first.Type)
		}
		if cerr := conn.Close(); cerr != nil {
			s.logf("session: close dead link: %v", cerr)
		}
		return
	}
	mux := newMux(conn, Config{Server: true, Telemetry: s.Telemetry}, []transport.Message{first})
	if !s.track(mux) {
		// Drained while this link was being set up; refuse it whole.
		if cerr := mux.Close(); cerr != nil {
			s.logf("session: close drained link: %v", cerr)
		}
		return
	}
	defer func() {
		s.untrack(mux)
		if cerr := mux.Close(); cerr != nil {
			s.logf("session: close link: %v", cerr)
		}
	}()
	for {
		st, err := mux.Accept()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, ErrMuxClosed) {
				s.logf("session: link failed: %v", err)
			}
			return
		}
		go s.runSession(st)
	}
}

// runSession admits one multiplexed session and hands it to the
// handler. A drain reject travels back as a typed ErrDraining frame, a
// gate reject as ErrOverloaded (with the server's retry-after hint)
// while sibling sessions proceed.
func (s *Server) runSession(st *Stream) {
	s.sessions.Add(1)
	defer s.sessions.Add(-1)
	if s.draining.Load() {
		s.count("sessions_rejected_draining")
		st.RejectDraining()
		return
	}
	if err := s.Gate.Acquire(); err != nil {
		st.RejectOverloaded(s.RetryAfterHint)
		return
	}
	defer s.Gate.Release()
	s.handle(st)
}

// handle runs the Handler for one session and settles its telemetry:
// completion/failure counters and the per-session wire-byte
// histograms.
func (s *Server) handle(conn transport.Conn) {
	err := s.Handler(conn)
	if cerr := conn.Close(); cerr != nil {
		s.logf("session: close session: %v", cerr)
	}
	if err != nil {
		s.count("sessions_failed")
		s.logf("session: handler: %v", err)
	} else {
		s.count("sessions_completed")
	}
	if s.draining.Load() {
		// An in-flight session that ran to completion under drain — the
		// graceful-shutdown contract working as intended.
		s.count("sessions_drained")
	}
	if s.Telemetry.Enabled() {
		st := conn.Stats()
		s.Telemetry.Histogram("session_bytes_sent").Observe(st.BytesSent())
		s.Telemetry.Histogram("session_bytes_recv").Observe(st.BytesRecv())
	}
}

func (s *Server) count(name string) {
	if s.Telemetry.Enabled() {
		s.Telemetry.Counter(name).Add(1)
	}
}

func (s *Server) gaugeLinks(delta int64) {
	n := s.links.Add(delta)
	if s.Telemetry.Enabled() {
		s.Telemetry.Gauge("links_active").Set(n)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}
