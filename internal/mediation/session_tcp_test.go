package mediation

import (
	"crypto/rsa"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/session"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
)

// These tests deploy the full multi-tenant topology the commands run:
// sources and mediator behind session.Servers, the mediator keeping one
// persistent multiplexed link per source through a session.Pool, and a
// client driving many overlapping protocol runs over one multiplexed
// TCP link — the ISSUE 8 acceptance setup.

// serveSession runs a session.Server on an ephemeral TCP listener and
// returns its address; cleanup closes the listener and waits for the
// serve loop.
func serveSession(t *testing.T, srv *session.Server) string {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := l.Close(); err != nil {
			t.Logf("listener close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return l.Addr()
}

// sessionTopology starts two sources and a mediator, all multiplexed,
// and returns the mediator address. gate and block customize the
// mediator's admission control and handler entry (block, when non-nil,
// parks every session until the channel closes — AFTER its gate slot is
// claimed).
func sessionTopology(t *testing.T, gate *session.Gate, reg *telemetry.Registry, block chan struct{}) string {
	t.Helper()
	f := getFixture(t)
	r1, r2 := testRelations(t)
	startSource := func(src *Source) string {
		return serveSession(t, &session.Server{
			Handler: func(conn transport.Conn) error {
				conn.SetTimeout(30 * time.Second)
				return src.Serve(conn)
			},
			Logf: t.Logf,
		})
	}
	addr1 := startSource(&Source{Name: "S1", Catalog: algebra.MapCatalog{"R1": r1},
		Policies: map[string]*credential.Policy{"R1": policyFor("R1")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}})
	addr2 := startSource(&Source{Name: "S2", Catalog: algebra.MapCatalog{"R2": r2},
		Policies: map[string]*credential.Policy{"R2": policyFor("R2")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}})

	// The pool keeps one persistent multiplexed link per source; every
	// mediator session opens a virtual link over it.
	pool := &session.Pool{Dial: transport.Dial, Telemetry: reg}
	t.Cleanup(func() {
		if err := pool.Close(); err != nil {
			t.Logf("pool close: %v", err)
		}
	})
	med := &Mediator{
		Schemas:   map[string]rel.Schema{"R1": r1.Schema(), "R2": r2.Schema()},
		Telemetry: reg,
		Routes: map[string]Dialer{
			"R1": func() (transport.Conn, error) { return pool.Open(addr1) },
			"R2": func() (transport.Conn, error) { return pool.Open(addr2) },
		},
	}
	return serveSession(t, &session.Server{
		Handler: func(conn transport.Conn) error {
			if block != nil {
				<-block
			}
			conn.SetTimeout(30 * time.Second)
			return med.HandleSession(conn)
		},
		Gate:      gate,
		Telemetry: reg,
		Logf:      t.Logf,
	})
}

// TestSessionTCPOverlappingRuns completes 64 overlapping protocol runs
// from concurrent clients through a single mediator process, one
// multiplexed TCP link per peer pair.
func TestSessionTCPOverlappingRuns(t *testing.T) {
	const runs = 64
	// Registered before the topology so it runs after every server and
	// pool cleanup has unwound.
	snap := testutil.Snapshot()
	t.Cleanup(func() { testutil.CheckGoroutines(t, snap) })
	reg := telemetry.NewRegistry()
	f := getFixture(t)
	want := expectedJoin(t)
	addr := sessionTopology(t, session.NewGate(runs, runs, reg), reg, nil)

	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mux := session.NewMux(conn, session.Config{})
	params := fastParams()
	params.Timeout = 30 * time.Second

	var wg sync.WaitGroup
	errs := make(chan error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := mux.Open()
			if err != nil {
				errs <- err
				return
			}
			res, err := f.client.Query(st, fixtureSQL, ProtocolDAS, params)
			if cerr := st.Close(); err == nil && cerr != nil {
				err = cerr
			}
			if err != nil {
				errs <- err
				return
			}
			if !res.EqualMultiset(want) {
				errs <- errors.New("wrong join")
			}
		}()
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		failed++
		t.Errorf("overlapping run: %v", err)
	}
	if failed > 0 {
		t.Fatalf("%d/%d overlapping runs failed", failed, runs)
	}
	// The server counts a session once its handler returns, which can be
	// just after the client already holds the result.
	for deadline := time.Now().Add(5 * time.Second); reg.Counter("sessions_completed").Value() < runs && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if got := reg.Counter("sessions_completed").Value(); got < runs {
		t.Errorf("mediator completed %d sessions, want >= %d", got, runs)
	}
	// One multiplexed link per source, not one per query.
	if got := reg.Counter("pool_links_dialed").Value(); got != 2 {
		t.Errorf("pool dialed %d links, want 2 (one per source)", got)
	}
	if err := mux.Close(); err != nil {
		t.Logf("mux close: %v", err)
	}
}

// TestSessionTCPOverload saturates a one-slot mediator gate and checks
// the typed ErrOverloaded reject reaches a concurrent client while the
// admitted session completes.
func TestSessionTCPOverload(t *testing.T) {
	snap := testutil.Snapshot()
	t.Cleanup(func() { testutil.CheckGoroutines(t, snap) })
	reg := telemetry.NewRegistry()
	f := getFixture(t)
	want := expectedJoin(t)
	block := make(chan struct{})
	addr := sessionTopology(t, session.NewGate(1, 0, reg), reg, block)

	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mux := session.NewMux(conn, session.Config{})
	defer func() {
		if err := mux.Close(); err != nil {
			t.Logf("mux close: %v", err)
		}
	}()
	params := fastParams()
	params.Timeout = 30 * time.Second

	// Session 1 claims the only slot and parks in the handler.
	first, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan error, 1)
	go func() {
		res, err := f.client.Query(first, fixtureSQL, ProtocolCommutative, params)
		if err == nil && !res.EqualMultiset(want) {
			err = errors.New("wrong join")
		}
		firstDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Gauge("sessions_active").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first session never claimed the gate slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Session 2 is refused with the typed overload error.
	second, err := mux.Open()
	if err != nil {
		t.Fatal(err)
	}
	_, qerr := f.client.Query(second, fixtureSQL, ProtocolCommutative, params)
	if !errors.Is(qerr, session.ErrOverloaded) {
		t.Fatalf("saturated query error = %v, want ErrOverloaded in the chain", qerr)
	}
	if err := second.Close(); err != nil {
		t.Logf("second close: %v", err)
	}
	if got := reg.Counter("sessions_rejected").Value(); got < 1 {
		t.Errorf("sessions_rejected = %d, want >= 1", got)
	}

	// Releasing the handler lets the admitted session finish normally.
	close(block)
	if err := <-firstDone; err != nil {
		t.Fatalf("admitted session: %v", err)
	}
	if err := first.Close(); err != nil {
		t.Logf("first close: %v", err)
	}
}
