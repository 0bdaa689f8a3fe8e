// The pool↔breaker integration regression lives in an external test
// package: resilience imports session (BreakerSet satisfies
// session.DialGovernor), so an in-package test could not import it
// back without a cycle.
package session_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/session"
	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
)

// breakerNet hands out in-memory links whose server side runs an
// echoing accept loop, retaining the client conns so the test can kill
// a live link deterministically (a closed conn fails the cached mux's
// next frame synchronously).
type breakerNet struct {
	mu     sync.Mutex
	dials  int
	conns  []transport.Conn
	muxes  []*session.Mux
	refuse bool // next dial is refused
}

func (n *breakerNet) dial(addr string) (transport.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.refuse {
		n.refuse = false
		return nil, fmt.Errorf("dial %s: connection refused", addr)
	}
	n.dials++
	client, server := transport.Pair()
	sm := session.NewMux(server, session.Config{Server: true})
	n.conns = append(n.conns, client)
	n.muxes = append(n.muxes, sm)
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
	return client, nil
}

func (n *breakerNet) dialCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dials
}

func (n *breakerNet) killLatestLink(t *testing.T) {
	t.Helper()
	n.mu.Lock()
	conn := n.conns[len(n.conns)-1]
	n.mu.Unlock()
	if err := conn.Close(); err != nil {
		t.Fatalf("kill cached link: %v", err)
	}
}

func (n *breakerNet) close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, m := range n.muxes {
		if err := m.Close(); err != nil {
			continue
		}
	}
}

// echo opens a session to addr and bounces one message through it.
func echo(p *session.Pool, addr string) error {
	st, err := p.Open(addr)
	if err != nil {
		return err
	}
	defer st.Close()
	st.SetTimeout(5 * time.Second)
	if err := st.Send(transport.Message{Type: "ping"}); err != nil {
		return err
	}
	m, err := st.Recv()
	if err == nil && m.Type != "ping" {
		err = fmt.Errorf("got message %q, want ping", m.Type)
	}
	return err
}

// TestPoolRedialWhileBreakerOpen checks the redial path against a real
// circuit breaker: when the cached link dies while the peer's breaker
// is open, the transparent redial must fast-fail with ErrCircuitOpen
// instead of burning a physical dial, and the same address must recover
// once the probe timer re-admits one.
func TestPoolRedialWhileBreakerOpen(t *testing.T) {
	snap := testutil.Snapshot()
	net := &breakerNet{}
	now := time.Unix(1000, 0)
	set := resilience.NewBreakerSet(resilience.BreakerConfig{
		Window:      4,
		MinSamples:  2,
		OpenTimeout: time.Second,
		Now:         func() time.Time { return now },
	})
	p := &session.Pool{Dial: net.dial, Governor: set}
	defer func() {
		if err := p.Close(); err != nil {
			t.Logf("pool close: %v", err)
		}
		net.close()
		testutil.CheckGoroutines(t, snap)
	}()

	const addr = "src1:7000"
	if err := echo(p, addr); err != nil {
		t.Fatalf("first query: %v", err)
	}

	// The peer melts down: enough recorded failures trip its breaker
	// open (the retry orchestrator records query outcomes the same way).
	set.Record(addr, errors.New("peer down"))
	set.Record(addr, errors.New("peer down"))

	// Kill the cached link out from under the pool. The next Open
	// retires it and tries to redial — the open breaker must refuse
	// that dial typed and fast.
	net.killLatestLink(t)
	if _, err := p.Open(addr); !errors.Is(err, resilience.ErrCircuitOpen) {
		t.Fatalf("open during open breaker: %v, want ErrCircuitOpen", err)
	}
	if got := net.dialCount(); got != 1 {
		t.Fatalf("dialed %d times while the breaker was open, want 1 (no dial burned)", got)
	}

	// Past OpenTimeout the half-open probe admits one dial; it
	// succeeds, the breaker re-closes, and the link is live again.
	now = now.Add(2 * time.Second)
	if err := echo(p, addr); err != nil {
		t.Fatalf("query after breaker re-admits: %v", err)
	}
	if got := net.dialCount(); got != 2 {
		t.Fatalf("dialed %d times after recovery, want 2 (initial + one probe redial)", got)
	}
}

// TestPoolDialSuccessLeavesBreakerClosed is the regression for a breaker
// tripped by the dial that built the live link: the pool consults its
// governor only around a dial, so nothing would ever re-close it. A
// refused dial followed by a successful one must leave the breaker
// closed, however long the link then serves.
func TestPoolDialSuccessLeavesBreakerClosed(t *testing.T) {
	snap := testutil.Snapshot()
	net := &breakerNet{refuse: true}
	now := time.Unix(1000, 0)
	set := resilience.NewBreakerSet(resilience.BreakerConfig{
		Window:      8,
		MinSamples:  2,
		OpenTimeout: time.Second,
		Now:         func() time.Time { return now },
	})
	p := &session.Pool{Dial: net.dial, Governor: set}
	defer func() {
		if err := p.Close(); err != nil {
			t.Logf("pool close: %v", err)
		}
		net.close()
		testutil.CheckGoroutines(t, snap)
	}()

	const addr = "src1:7000"
	if err := echo(p, addr); err == nil {
		t.Fatal("query over a refused dial succeeded, want error")
	}
	if err := echo(p, addr); err != nil {
		t.Fatalf("query after the peer came back: %v", err)
	}
	now = now.Add(2 * time.Second)
	for i := 0; i < 5; i++ {
		if err := echo(p, addr); err != nil {
			t.Fatalf("query %d over the live link: %v", i, err)
		}
	}
	if got := set.For(addr).State(); got != resilience.StateClosed {
		t.Fatalf("breaker = %v after a refused and a successful dial, want closed", got)
	}
	if got := net.dialCount(); got != 1 {
		t.Fatalf("successful dials = %d, want 1", got)
	}
}
