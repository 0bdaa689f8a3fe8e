package session

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/secmediation/secmediation/internal/transport"
)

// Mux multiplexes many concurrent sessions over one transport.Conn.
// Both endpoints wrap their side of the link (one with Config.Server
// set); Open starts a session, Accept claims sessions the peer opened.
// A Mux owns the link's receive side: nothing else may call Recv on the
// wrapped conn while the mux lives.
type Mux struct {
	inner transport.Conn
	cfg   Config

	sendMu sync.Mutex // serializes frames onto the shared link

	mu       sync.Mutex
	streams  map[uint64]*Stream
	nextSID  uint64
	dead     bool
	err      error
	acceptCh chan *Stream
	done     chan struct{}
}

// NewMux wraps conn. The mux immediately starts its demux loop and owns
// conn until Close; closing the mux closes conn.
func NewMux(conn transport.Conn, cfg Config) *Mux {
	return newMux(conn, cfg, nil)
}

// newMux additionally accepts frames already read off the link (the
// Server's first-frame check), which the demux loop dispatches before
// touching the conn.
func newMux(conn transport.Conn, cfg Config, preread []transport.Message) *Mux {
	m := &Mux{
		inner:    conn,
		cfg:      cfg,
		streams:  make(map[uint64]*Stream),
		nextSID:  1,
		acceptCh: make(chan *Stream, acceptBacklog),
		done:     make(chan struct{}),
	}
	if cfg.Server {
		m.nextSID = 2
	}
	go m.recvLoop(preread)
	return m
}

// Open starts a new session and returns its virtual link. The open
// travels asynchronously: a peer that refuses the session (admission
// control) fails the stream's subsequent operations with ErrOverloaded.
func (m *Mux) Open() (*Stream, error) {
	m.mu.Lock()
	if m.dead {
		err := m.err
		m.mu.Unlock()
		return nil, fmt.Errorf("session: open: %w", err)
	}
	sid := m.nextSID
	m.nextSID += 2
	st := m.newStream(sid)
	m.streams[sid] = st
	m.mu.Unlock()
	m.count("mux_sessions_opened")
	m.gaugeActive()
	if err := m.send(controlFrame(transport.OpOpen, sid, "")); err != nil {
		m.removeStream(sid)
		return nil, fmt.Errorf("session: open: %w", err)
	}
	return st, nil
}

// Accept claims the next session the peer opened. It blocks until one
// arrives or the mux dies; after the link fails, already-queued
// sessions are still handed out (dead, but carrying their error) before
// the link error is returned.
func (m *Mux) Accept() (*Stream, error) {
	select {
	case st := <-m.acceptCh:
		return st, nil
	case <-m.done:
		select {
		case st := <-m.acceptCh:
			return st, nil
		default:
		}
		m.mu.Lock()
		err := m.err
		m.mu.Unlock()
		return nil, fmt.Errorf("session: accept: %w", err)
	}
}

// Close tears the mux down: every session fails with ErrMuxClosed and
// the underlying link is closed. The mux is marked dead before the
// link closes so sessions deterministically see ErrMuxClosed, not the
// closed-socket error the demux loop races into.
func (m *Mux) Close() error {
	m.fail(ErrMuxClosed)
	return m.inner.Close()
}

// Sessions returns the number of live sessions on the link.
func (m *Mux) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams)
}

// Stats returns the underlying link's traffic counters (all sessions
// combined, mux framing included). Per-session attribution is on each
// Stream's own Stats.
func (m *Mux) Stats() *transport.Stats { return m.inner.Stats() }

// send serializes one frame onto the shared link. A send failure is a
// link failure: it kills the mux so every session aborts promptly
// instead of timing out one by one.
//
// seclint:guards sendMu exists to hold across inner.Send — it is the per-link serialization point putting exactly one frame at a time on the shared conn
func (m *Mux) send(frame transport.Message) error {
	m.sendMu.Lock()
	err := m.inner.Send(frame)
	m.sendMu.Unlock()
	if err != nil {
		m.fail(fmt.Errorf("session: link send failed: %w", err))
		return err
	}
	return nil
}

// recvLoop is the demux pump: it owns the link's receive side, routing
// every inbound frame to its session's queue. Per-operation timeouts on
// the wrapped conn are treated as link idleness, not failure — dead-peer
// detection is the per-stream timers' job, because an idle multiplexed
// link with no traffic is healthy.
func (m *Mux) recvLoop(preread []transport.Message) {
	for _, f := range preread {
		m.dispatch(f)
	}
	for {
		frame, err := m.inner.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			m.fail(err)
			return
		}
		m.dispatch(frame)
	}
}

// dispatch routes one inbound frame. Unknown sessions and malformed
// headers (session 0, an unknown opcode) are counted and dropped — stale
// frames for a session closed locally must not damage its siblings.
func (m *Mux) dispatch(frame transport.Message) {
	sid := frame.Session
	if sid == 0 {
		m.count("mux_frames_malformed")
		return
	}
	switch frame.Op {
	case transport.OpOpen:
		m.handleOpen(sid)
	case transport.OpData:
		m.mu.Lock()
		st := m.streams[sid]
		m.mu.Unlock()
		if st == nil {
			m.count("mux_frames_stale")
			return
		}
		st.deliver(unwrapData(frame), int64(frame.FrameSize()))
	case transport.OpClose:
		m.mu.Lock()
		st := m.streams[sid]
		delete(m.streams, sid)
		m.mu.Unlock()
		if st != nil {
			st.peerClose()
			m.gaugeActive()
		}
	case transport.OpReject:
		m.mu.Lock()
		st := m.streams[sid]
		delete(m.streams, sid)
		m.mu.Unlock()
		if st != nil {
			st.fail(parseReject(sid, frame.Type))
			m.count("mux_sessions_rejected_by_peer")
			m.gaugeActive()
		}
	default:
		m.count("mux_frames_malformed")
	}
}

// handleOpen admits or rejects a session the peer opened.
func (m *Mux) handleOpen(sid uint64) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	if _, dup := m.streams[sid]; dup {
		// Protocol violation by the peer; drop rather than clobber the
		// existing session.
		m.mu.Unlock()
		m.count("mux_frames_malformed")
		return
	}
	st := m.newStream(sid)
	m.streams[sid] = st
	m.mu.Unlock()
	select {
	case m.acceptCh <- st:
		m.count("mux_sessions_accepted")
		m.gaugeActive()
	default:
		// Accept backlog full: nobody is claiming sessions fast enough.
		m.removeStream(sid)
		m.reject(sid, rejectOverloaded)
	}
}

// reject refuses a peer-opened session with the given reason.
func (m *Mux) reject(sid uint64, reason string) {
	m.count("mux_sessions_rejected")
	if err := m.send(controlFrame(transport.OpReject, sid, reason)); err != nil {
		// The link just died; fail() already tore everything down and
		// the opener learns from the link failure instead.
		return
	}
}

// removeStream drops a session from the routing table (local close or
// failed open).
func (m *Mux) removeStream(sid uint64) {
	m.mu.Lock()
	delete(m.streams, sid)
	m.mu.Unlock()
	m.gaugeActive()
}

// fail marks the mux dead and propagates err to every live session.
// io.EOF (orderly link shutdown by the peer) passes through bare so
// sessions see the same clean-close semantics a plain conn gives.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	m.err = err
	orphans := make([]*Stream, 0, len(m.streams))
	for _, st := range m.streams {
		orphans = append(orphans, st)
	}
	m.streams = make(map[uint64]*Stream)
	close(m.done)
	m.mu.Unlock()
	for _, st := range orphans {
		st.fail(err)
	}
	m.gaugeActive()
}

func (m *Mux) count(name string) {
	if m.cfg.Telemetry.Enabled() {
		m.cfg.Telemetry.Counter(name).Add(1)
	}
}

func (m *Mux) gaugeActive() {
	if m.cfg.Telemetry.Enabled() {
		m.mu.Lock()
		n := len(m.streams)
		m.mu.Unlock()
		m.cfg.Telemetry.Gauge("mux_sessions_active").Set(int64(n))
	}
}

// Stream is one virtual link of a multiplexed connection. It satisfies
// transport.Conn, so protocol code is oblivious to the mux underneath.
// Like the plain transports it supports one concurrent sender and one
// concurrent receiver.
type Stream struct {
	mux *Mux
	id  uint64
	in  chan transport.Message

	timeout atomic.Int64 // per-operation bound in nanoseconds; 0 disables
	stats   transport.Stats

	closeOnce sync.Once
	closed    chan struct{} // local Close

	peerOnce sync.Once
	peerDone chan struct{} // peer sent an orderly close

	failOnce sync.Once
	failed   chan struct{} // reject or link failure
	err      error         // set before failed closes; read only after
}

func (m *Mux) newStream(sid uint64) *Stream {
	return &Stream{
		mux:      m,
		id:       sid,
		in:       make(chan transport.Message, queueDepth),
		closed:   make(chan struct{}),
		peerDone: make(chan struct{}),
		failed:   make(chan struct{}),
	}
}

// SessionID returns the stream's mux session ID — the per-session
// telemetry roots in internal/mediation pick it up through this method.
func (s *Stream) SessionID() uint64 { return s.id }

// deliver enqueues one inbound message. A full queue blocks the demux
// loop (bounded buffering is the link's backpressure); a session closed
// locally discards instead, so an abandoned session cannot stall its
// siblings. The frame is counted before the hand-off, so a consumer
// that reads Stats after Recv sees it, and uncounted when discarded.
func (s *Stream) deliver(msg transport.Message, wireSize int64) {
	s.stats.CountRecv(wireSize)
	select {
	case s.in <- msg:
	case <-s.closed:
		s.stats.UncountRecv(wireSize)
		s.mux.count("mux_frames_stale")
	case <-s.mux.done:
		s.stats.UncountRecv(wireSize)
	}
}

// peerClose marks the peer's orderly close; queued messages remain
// readable, then Recv reports io.EOF.
func (s *Stream) peerClose() {
	s.peerOnce.Do(func() { close(s.peerDone) })
}

// fail poisons the stream (admission reject or link failure).
func (s *Stream) fail(err error) {
	s.failOnce.Do(func() {
		s.err = err
		close(s.failed)
	})
}

// deadline mirrors the in-memory transport's timer-based per-operation
// bound.
func (s *Stream) deadline() (<-chan time.Time, func()) {
	d := time.Duration(s.timeout.Load())
	if d <= 0 {
		return nil, func() {}
	}
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// Send implements transport.Conn: the message is wrapped into a data
// frame and serialized onto the shared link.
func (s *Stream) Send(m transport.Message) error {
	select {
	case <-s.closed:
		return fmt.Errorf("session: send on closed session")
	default:
	}
	select {
	case <-s.failed:
		return fmt.Errorf("session: send: %w", s.err)
	default:
	}
	select {
	case <-s.peerDone:
		return fmt.Errorf("session: peer closed session")
	default:
	}
	frame := dataFrame(s.id, m)
	if err := s.mux.send(frame); err != nil {
		return fmt.Errorf("session: send: %w", err)
	}
	s.stats.CountSend(int64(frame.FrameSize()))
	return nil
}

// Recv implements transport.Conn. Messages queued before a peer close
// or link failure drain first; then an orderly peer close reports
// io.EOF (parity with the plain transports) and a failed session
// reports its terminal error.
func (s *Stream) Recv() (transport.Message, error) {
	select {
	case m := <-s.in:
		return m, nil
	default:
	}
	deadline, stop := s.deadline()
	defer stop()
	select {
	case m := <-s.in:
		return m, nil
	case <-s.closed:
		return transport.Message{}, fmt.Errorf("session: recv on closed session")
	case <-s.failed:
		select {
		case m := <-s.in:
			return m, nil
		default:
		}
		return transport.Message{}, s.recvErr()
	case <-s.peerDone:
		select {
		case m := <-s.in:
			return m, nil
		default:
		}
		return transport.Message{}, io.EOF
	case <-deadline:
		return transport.Message{}, fmt.Errorf("session: recv: %w", transport.ErrTimeout)
	}
}

// recvErr renders the terminal error for Recv: bare io.EOF keeps its
// clean-close meaning, everything else keeps its chain (ErrOverloaded,
// transport errors) for errors.Is.
func (s *Stream) recvErr() error {
	if errors.Is(s.err, io.EOF) {
		return io.EOF
	}
	return s.err
}

// Close implements transport.Conn: it retires the session locally and
// notifies the peer with a close frame. The shared link stays up for
// the sibling sessions.
func (s *Stream) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.mux.removeStream(s.id)
		if err := s.mux.send(controlFrame(transport.OpClose, s.id, "")); err != nil {
			// The link is already down; every session has been failed
			// and the peer learns from the link, not the frame.
			return
		}
	})
	return nil
}

// RejectOverloaded refuses a server-side session before handling it
// (admission control): the opener's operations fail with ErrOverloaded,
// carrying a retry-after hint (when positive) that the opener's retry
// orchestrator honors before re-opening. The session is retired locally.
// Only meaningful on streams obtained from Accept, before any payload is
// sent.
func (s *Stream) RejectOverloaded(hint time.Duration) {
	s.rejectWith(ErrOverloaded, rejectReason(rejectOverloaded, hint))
}

// RejectDraining refuses a server-side session because the server is
// shutting down: the opener sees ErrDraining, a retryable-elsewhere
// condition, instead of a protocol failure.
func (s *Stream) RejectDraining() {
	s.rejectWith(ErrDraining, rejectDraining)
}

// rejectWith retires the session locally with the typed cause and sends
// the reject frame carrying reason to the opener.
func (s *Stream) rejectWith(cause error, reason string) {
	s.fail(fmt.Errorf("session %d rejected: %w", s.id, cause))
	s.closeOnce.Do(func() {
		close(s.closed)
		s.mux.removeStream(s.id)
		s.mux.reject(s.id, reason)
	})
}

// SetTimeout implements transport.Conn: it bounds this session's Recv
// waits with a timer and arms the shared link's own per-operation
// timeout with the same value (last writer wins across sessions — in
// practice every session of a deployment shares one Params.Timeout), so
// a Send blocked on a saturated dead peer is bounded too. The mux demux
// loop itself treats link-level receive timeouts as idleness.
func (s *Stream) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.timeout.Store(int64(d))
	s.mux.inner.SetTimeout(d)
}

// Stats implements transport.Conn: this session's share of the link
// traffic, counted in full frames (header included, see
// transport.Message.FrameSize).
func (s *Stream) Stats() *transport.Stats { return &s.stats }
