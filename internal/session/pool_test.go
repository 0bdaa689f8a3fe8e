package session

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
)

// fakeNet hands out in-memory links whose server side runs an echoing
// session Server-style accept loop, counting dials per address.
type fakeNet struct {
	mu    sync.Mutex
	dials map[string]int
	muxes []*Mux
	fail  bool // next dial fails
}

func newFakeNet() *fakeNet { return &fakeNet{dials: map[string]int{}} }

func (f *fakeNet) dial(addr string) (transport.Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		f.fail = false
		return nil, fmt.Errorf("dial %s: connection refused", addr)
	}
	f.dials[addr]++
	client, server := transport.Pair()
	sm := NewMux(server, Config{Server: true})
	f.muxes = append(f.muxes, sm)
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

func (f *fakeNet) dialCount(addr string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials[addr]
}

func (f *fakeNet) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.muxes {
		if err := m.Close(); err != nil {
			continue
		}
	}
}

// roundTrip opens a session to addr and echoes one message through it.
func roundTrip(p *Pool, addr string) error {
	st, err := p.Open(addr)
	if err != nil {
		return err
	}
	defer st.Close()
	st.SetTimeout(5 * time.Second)
	if err := st.Send(transport.Message{Type: "ping"}); err != nil {
		return err
	}
	_, err = recvType(st, "ping")
	return err
}

// TestPoolSharesOneLink checks the no-dial-per-query property: many
// concurrent sessions to one peer share a single physical link.
func TestPoolSharesOneLink(t *testing.T) {
	snap := testutil.Snapshot()
	net := newFakeNet()
	p := &Pool{Dial: net.dial}
	defer func() {
		if err := p.Close(); err != nil {
			t.Logf("pool close: %v", err)
		}
		net.close()
		testutil.CheckGoroutines(t, snap)
	}()

	const queries = 12
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := roundTrip(p, "src1:7000"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := net.dialCount("src1:7000"); got != 1 {
		t.Fatalf("dialed %d times for %d queries, want 1", got, queries)
	}
}

// TestPoolRedialsDeadLink checks transparent recovery: when the cached
// link dies, the next Open retires it and redials exactly once.
func TestPoolRedialsDeadLink(t *testing.T) {
	snap := testutil.Snapshot()
	net := newFakeNet()
	p := &Pool{Dial: net.dial}
	defer func() {
		if err := p.Close(); err != nil {
			t.Logf("pool close: %v", err)
		}
		net.close()
		testutil.CheckGoroutines(t, snap)
	}()

	const addr = "src1:7000"
	if err := roundTrip(p, addr); err != nil {
		t.Fatalf("first query: %v", err)
	}
	// Kill the cached link out from under the pool.
	entry := p.entry(addr)
	if entry.mux == nil {
		t.Fatal("pool has no cached link after a query")
	}
	if err := entry.mux.Close(); err != nil {
		t.Fatalf("kill cached link: %v", err)
	}

	if err := roundTrip(p, addr); err != nil {
		t.Fatalf("query after link death: %v", err)
	}
	if got := net.dialCount(addr); got != 2 {
		t.Fatalf("dialed %d times, want 2 (initial + one redial)", got)
	}
}

// TestPoolDialFailure is the dial-fail → later-success regression: a
// failed dial surfaces immediately (the retry orchestrator owns the
// cadence) but must not poison the address entry — the next Open dials
// fresh and succeeds.
func TestPoolDialFailure(t *testing.T) {
	snap := testutil.Snapshot()
	net := newFakeNet()
	net.fail = true
	reg := telemetry.NewRegistry()
	p := &Pool{Dial: net.dial, Telemetry: reg}
	defer func() {
		if err := p.Close(); err != nil {
			t.Logf("pool close: %v", err)
		}
		net.close()
		testutil.CheckGoroutines(t, snap)
	}()

	if err := roundTrip(p, "src1:7000"); err == nil {
		t.Fatal("open during dial failure succeeded, want error")
	}
	// The peer is back; the same address must work without any reset.
	if err := roundTrip(p, "src1:7000"); err != nil {
		t.Fatalf("open after transient dial failure: %v", err)
	}
	if got := net.dialCount("src1:7000"); got != 1 {
		t.Fatalf("successful dials = %d, want 1", got)
	}
	if got := reg.Counter("pool_dial_failures", "addr", "src1:7000").Value(); got != 1 {
		t.Errorf("pool_dial_failures = %d, want 1", got)
	}
	if got := reg.Counter("pool_links_dialed").Value(); got != 1 {
		t.Errorf("pool_links_dialed = %d, want 1", got)
	}
}

// governorFunc adapts funcs to DialGovernor for tests.
type governorFunc struct {
	allow  func(addr string) error
	record func(addr string, err error)
}

func (g governorFunc) Allow(addr string) error       { return g.allow(addr) }
func (g governorFunc) Record(addr string, err error) { g.record(addr, err) }

// TestPoolGovernor checks the breaker seam: Allow gates the dial (a
// refusal surfaces typed and undialed), Record sees every outcome.
func TestPoolGovernor(t *testing.T) {
	snap := testutil.Snapshot()
	net := newFakeNet()
	refuse := errors.New("circuit open")
	var mu sync.Mutex
	var recorded []error
	blocked := false
	gov := governorFunc{
		allow: func(addr string) error {
			mu.Lock()
			defer mu.Unlock()
			if blocked {
				return refuse
			}
			return nil
		},
		record: func(addr string, err error) {
			mu.Lock()
			recorded = append(recorded, err)
			mu.Unlock()
		},
	}
	p := &Pool{Dial: net.dial, Governor: gov}
	defer func() {
		if err := p.Close(); err != nil {
			t.Logf("pool close: %v", err)
		}
		net.close()
		testutil.CheckGoroutines(t, snap)
	}()

	mu.Lock()
	blocked = true
	mu.Unlock()
	if _, err := p.Open("src1:7000"); !errors.Is(err, refuse) {
		t.Fatalf("open under refusing governor: %v, want %v", err, refuse)
	}
	mu.Lock()
	blocked = false
	mu.Unlock()
	if err := roundTrip(p, "src1:7000"); err != nil {
		t.Fatalf("open after governor re-admits: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recorded) != 1 || recorded[0] != nil {
		t.Fatalf("recorded outcomes = %v, want one success", recorded)
	}
}

// TestPoolClose checks sessions fail with ErrMuxClosed once the pool is
// torn down.
func TestPoolClose(t *testing.T) {
	snap := testutil.Snapshot()
	net := newFakeNet()
	p := &Pool{Dial: net.dial}
	defer func() {
		net.close()
		testutil.CheckGoroutines(t, snap)
	}()
	st, err := p.Open("src1:7000")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("pool close: %v", err)
	}
	if err := st.Send(transport.Message{Type: "x"}); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("send after pool close: %v, want ErrMuxClosed", err)
	}
}
