package mediation

import (
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/session"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
)

// TestChaosSourceRestartRecovery kills a datasource mid-run in the full
// multiplexed deployment and asserts the recovery contract: the retry
// orchestrator converges the interrupted query once the source is back
// (walking the mediator's per-peer breaker through its open window),
// and fresh sibling sessions on the SAME client↔mediator mux link are
// unaffected by the episode. Leak-checked.
func TestChaosSourceRestartRecovery(t *testing.T) {
	const openTimeout = 100 * time.Millisecond
	snap := testutil.Snapshot()
	t.Cleanup(func() { testutil.CheckGoroutines(t, snap) })
	f := getFixture(t)
	want := expectedJoin(t)
	r1, r2 := testRelations(t)
	reg := telemetry.NewRegistry()

	// S1 is restartable: one Source instance persists (its stale-attempt
	// registry must survive a crash of the serving layer), each restart
	// builds a fresh session.Server on the same fixed address.
	src1 := &Source{Name: "S1", Catalog: algebra.MapCatalog{"R1": r1},
		Policies: map[string]*credential.Policy{"R1": policyFor("R1")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	var s1mu sync.Mutex
	var s1srv *session.Server
	var s1l *transport.Listener
	var s1done chan error
	var addr1 string
	startS1 := func() error {
		s1mu.Lock()
		listen := addr1
		s1mu.Unlock()
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		var l *transport.Listener
		var err error
		// The fixed port was just freed by the kill; absorb a racing rebind.
		for i := 0; i < 50; i++ {
			if l, err = transport.Listen(listen); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("restarting S1: %w", err)
		}
		srv := &session.Server{Handler: func(conn transport.Conn) error {
			conn.SetTimeout(30 * time.Second)
			return src1.Serve(conn)
		}}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		s1mu.Lock()
		s1srv, s1l, s1done, addr1 = srv, l, done, l.Addr()
		s1mu.Unlock()
		return nil
	}
	stopS1 := func() {
		s1mu.Lock()
		srv, l, done := s1srv, s1l, s1done
		s1srv, s1l, s1done = nil, nil, nil
		s1mu.Unlock()
		if srv == nil {
			return
		}
		l.Close()
		<-done
		// An already-expired context forces the live links closed now: a
		// crash, not a drain.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = srv.Shutdown(ctx)
	}
	if err := startS1(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopS1)
	route1 := func() string {
		s1mu.Lock()
		defer s1mu.Unlock()
		return addr1
	}

	addr2 := serveSession(t, &session.Server{Handler: func(conn transport.Conn) error {
		conn.SetTimeout(30 * time.Second)
		src2 := &Source{Name: "S2", Catalog: algebra.MapCatalog{"R2": r2},
			Policies: map[string]*credential.Policy{"R2": policyFor("R2")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
		return src2.Serve(conn)
	}})

	// The mediator's source pool sits behind per-peer breakers: S1's
	// death must not cost every retry a fresh dial timeout, and S2's
	// breaker must never trip.
	pool := &session.Pool{Dial: transport.Dial, Telemetry: reg,
		Governor: resilience.NewBreakerSet(resilience.BreakerConfig{
			Window: 8, MinSamples: 2, OpenTimeout: openTimeout, Telemetry: reg,
		})}
	t.Cleanup(func() {
		if err := pool.Close(); err != nil {
			t.Logf("pool close: %v", err)
		}
	})
	med := &Mediator{
		Schemas:   map[string]rel.Schema{"R1": r1.Schema(), "R2": r2.Schema()},
		Telemetry: reg,
		Routes: map[string]Dialer{
			"R1": func() (transport.Conn, error) { return pool.Open(route1()) },
			"R2": func() (transport.Conn, error) { return pool.Open(addr2) },
		},
	}
	addr := serveSession(t, &session.Server{Handler: func(conn transport.Conn) error {
		conn.SetTimeout(30 * time.Second)
		return med.HandleSession(conn)
	}})

	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cm := session.NewMux(conn, session.Config{})
	t.Cleanup(func() {
		if err := cm.Close(); err != nil {
			t.Logf("mux close: %v", err)
		}
	})
	params := fastParams()
	params.Timeout = chaosTimeout
	runQuery := func(pol resilience.Policy) (resilience.Result, error) {
		var got *rel.Relation
		r, err := resilience.Do(pol, func(a resilience.Attempt) error {
			st, err := cm.Open()
			if err != nil {
				return err
			}
			defer st.Close()
			st.SetTimeout(params.Timeout)
			p := params
			p.QueryID, p.Attempt = a.QueryID, a.N
			out, err := f.client.Query(st, fixtureSQL, ProtocolDAS, p)
			if err != nil {
				return err
			}
			got = out
			return nil
		})
		if err == nil && !got.EqualMultiset(want) {
			return r, errors.New("recovered query returned a wrong join")
		}
		return r, err
	}

	// Warm-up: a clean run proves the topology and caches the pool's S1
	// link, whose death the kill then exercises mid-deployment.
	if _, err := runQuery(resilience.Policy{MaxAttempts: 2, Telemetry: reg}); err != nil {
		t.Fatalf("warm-up query: %v", err)
	}

	// Kill S1 and orchestrate the victim query: two failed attempts trip
	// the breaker, the second backoff restarts S1 and waits out the open
	// window, and the half-open probe recovers the query.
	stopS1()
	var restartErr error
	sleeps := 0
	r, err := runQuery(resilience.Policy{
		MaxAttempts: 5, BaseDelay: 20 * time.Millisecond, Seed: 7, Telemetry: reg,
		Sleep: func(d time.Duration) {
			sleeps++
			if sleeps == 2 {
				restartErr = startS1()
				time.Sleep(openTimeout + 100*time.Millisecond)
				return
			}
			time.Sleep(d)
		},
	})
	if restartErr != nil {
		t.Fatalf("restarting S1: %v", restartErr)
	}
	if err != nil {
		t.Fatalf("victim query did not recover: %v", err)
	}
	if !r.Recovered || r.Attempts < 2 {
		t.Errorf("victim result %+v, want a recovery after >= 2 attempts", r)
	}
	if got := reg.Counter("queries_recovered").Value(); got < 1 {
		t.Errorf("queries_recovered = %d, want >= 1", got)
	}
	if st := resilience.State(reg.Gauge("breaker_state", "peer", route1()).Value()); st != resilience.StateClosed {
		t.Errorf("S1 breaker %v after recovery, want closed", st)
	}
	if st := resilience.State(reg.Gauge("breaker_state", "peer", addr2).Value()); st != resilience.StateClosed {
		t.Errorf("S2 breaker %v, want closed (S1's death must not trip it)", st)
	}

	// Siblings on the SAME mux link after the episode: the shared
	// physical link and the mediator's pool must be unharmed.
	const siblings = 3
	var wg sync.WaitGroup
	errs := make(chan error, siblings)
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := runQuery(resilience.Policy{MaxAttempts: 2, Telemetry: reg})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("sibling session after restart: %v", err)
		}
	}
}

// TestAdmitAttempt pins the stale-attempt registry contract: empty IDs
// (clients not using the orchestrator) always admitted, duplicates of
// the live attempt admitted, older attempts denied and counted, and
// FIFO eviction at attemptCap.
func TestAdmitAttempt(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := &Source{Name: "S1", Telemetry: reg}
	if !s.admitAttempt("", 5) {
		t.Error("empty query ID denied; orchestrator-less clients must always be admitted")
	}
	if !s.admitAttempt("q1", 1) {
		t.Error("first attempt denied")
	}
	if !s.admitAttempt("q1", 1) {
		t.Error("duplicate of the live attempt denied; the registry tracks abandonment, not duplication")
	}
	if !s.admitAttempt("q1", 2) {
		t.Error("newer attempt denied")
	}
	if s.admitAttempt("q1", 1) {
		t.Error("stale attempt admitted after the client moved on")
	}
	if got := reg.Counter("stale_attempts_discarded").Value(); got != 1 {
		t.Errorf("stale_attempts_discarded = %d, want 1", got)
	}
	// Fill the registry with fresh IDs until q1 is evicted FIFO; its
	// previously-stale attempt is then admitted again (the registry
	// bounds memory, not correctness — a stale attempt that slips
	// through after eviction is a duplicate session, not a wrong join).
	for i := 0; i < attemptCap; i++ {
		if !s.admitAttempt(fmt.Sprintf("evict-%d", i), 3) {
			t.Fatalf("fresh query evict-%d denied", i)
		}
	}
	if !s.admitAttempt("q1", 1) {
		t.Error("q1 not evicted after attemptCap fresh query IDs")
	}
}
