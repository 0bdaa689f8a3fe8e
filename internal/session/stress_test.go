package session

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
)

// TestStressInterleavedSessions drives well over 32 concurrent sessions
// through one mux, each pipelining more than queueDepth frames ahead of
// its reader, so demux backpressure, open/close interleaving and
// per-session ordering all get exercised under the race detector (the
// Makefile race target runs this package).
func TestStressInterleavedSessions(t *testing.T) {
	const (
		sessions = 40
		msgs     = queueDepth + 16
	)
	snap := testutil.Snapshot()
	a, b := transport.Pair()
	cm := NewMux(a, Config{})
	sm := NewMux(b, Config{Server: true})
	defer func() {
		if err := cm.Close(); err != nil {
			t.Logf("client mux close: %v", err)
		}
		if err := sm.Close(); err != nil {
			t.Logf("server mux close: %v", err)
		}
		testutil.CheckGoroutines(t, snap)
	}()

	// Server: echo loop per session.
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
	// At most a receive error and a send error per session.
	errs := make(chan error, 2*sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := cm.Open()
			if err != nil {
				errs <- fmt.Errorf("session %d open: %w", i, err)
				return
			}
			defer st.Close()
			st.SetTimeout(10 * time.Second)
			// A writer pipelines every frame without waiting for its
			// echo while this goroutine reads the echoes back, so
			// queued and alternating traffic interleave across
			// sessions. Reading concurrently keeps the full queues
			// draining: a session never blocks sending while its own
			// echo queue is full.
			sent := make(chan error, 1)
			go func() {
				for j := 0; j < msgs; j++ {
					if err := st.Send(transport.Message{Type: fmt.Sprintf("s%d.m%d", i, j)}); err != nil {
						sent <- fmt.Errorf("session %d send: %w", i, err)
						return
					}
				}
				sent <- nil
			}()
			defer func() {
				if err := <-sent; err != nil {
					errs <- err
				}
			}()
			for j := 0; j < msgs; j++ {
				m, err := st.Recv()
				if err != nil {
					errs <- fmt.Errorf("session %d recv %d: %w", i, j, err)
					return
				}
				if want := fmt.Sprintf("s%d.m%d", i, j); m.Type != want {
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
	if n := cm.Sessions(); n != 0 {
		t.Errorf("%d sessions still registered on client mux", n)
	}
}
