package main

import (
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/mediation"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/session"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/testutil"
	"github.com/secmediation/secmediation/internal/transport"
	"github.com/secmediation/secmediation/internal/workload/insecurerand"
)

// The chaos soak drives the full recovery stack end to end: a live TCP
// deployment with a restartable datasource, retry-orchestrated clients,
// per-peer circuit breakers on the mediator's source pool, seeded link
// faults, an admission-overload arm and a graceful-drain arm. Its
// invariant is the resilience contract of docs/RESILIENCE.md: every
// query ends in the correct join or a typed error — never a hang, never
// a wrong answer — and the world heals (breakers re-close, no goroutine
// leaks) once the faults stop.

// soakOpenTimeout is the breaker open→half-open timeout used throughout
// the soak: short enough that recovery fits a test run, long enough
// that fast-fails are observable.
const soakOpenTimeout = 150 * time.Millisecond

// soakTimeout is the per-operation protocol deadline; dropped messages
// convert to retryable timeouts after this long.
const soakTimeout = time.Second

// soakRestart records the deterministic kill/restart arm: S1 is down
// for the first two attempts (tripping the mediator's breaker), back up
// for the third (the half-open probe), so the query MUST recover and
// the breaker MUST walk closed→open→half-open→closed.
type soakRestart struct {
	Attempts    int      `json:"attempts"`
	Recovered   bool     `json:"recovered"`
	Transitions []string `json:"breaker_transitions"`
}

// soakSteady records the rolling-fault arm: N workers looping queries
// under seeded per-query fault plans while S1 is periodically killed
// and restarted.
type soakSteady struct {
	Clients         int `json:"clients"`
	Queries         int `json:"queries"`
	Succeeded       int `json:"succeeded"`
	Recovered       int `json:"recovered"`
	Exhausted       int `json:"exhausted"`
	Terminal        int `json:"terminal"`
	FaultsScheduled int `json:"faults_scheduled"`
	SourceRestarts  int `json:"source_restarts"`
}

// soakOverloadArm records the admission arm: more concurrent queries
// than gate slots, every reject carrying a retry-after hint, and the
// orchestrator converging all of them to success.
type soakOverloadArm struct {
	Slots         int   `json:"slots"`
	Clients       int   `json:"clients"`
	Succeeded     int   `json:"succeeded"`
	Recovered     int   `json:"recovered"`
	ServerRejects int64 `json:"server_rejects"`
}

// soakDrainArm records the graceful-drain arm: one session in flight
// when Shutdown begins, which must complete, while a new open on the
// same live link is rejected with ErrDraining.
type soakDrainArm struct {
	InFlight         int   `json:"in_flight"`
	Completed        int64 `json:"completed"`
	RejectedDraining int64 `json:"rejected_draining"`
	SessionsDrained  int64 `json:"sessions_drained"`
	DrainedClean     bool  `json:"drained_clean"`
}

// soakReport is the BENCH_soak.json schema.
type soakReport struct {
	Cores            int             `json:"cores"`
	GOMAXPROCS       int             `json:"gomaxprocs"`
	GOOS             string          `json:"goos"`
	GOARCH           string          `json:"goarch"`
	Seed             uint64          `json:"seed"`
	Protocol         string          `json:"protocol"`
	DurationNs       int64           `json:"duration_ns"`
	Restart          soakRestart     `json:"restart"`
	Steady           soakSteady      `json:"steady"`
	Overload         soakOverloadArm `json:"overload"`
	Drain            soakDrainArm    `json:"drain"`
	RetriesAttempted int64           `json:"retries_attempted"`
	QueriesRecovered int64           `json:"queries_recovered"`
	BreakerReclosed  bool            `json:"breaker_reclosed"`
	GoroutineLeaks   int             `json:"goroutine_leaks"`
	Violations       []string        `json:"violations,omitempty"`
}

// soakWorld is the chaos deployment: a steady S2, a restartable S1 on a
// fixed address, and a mediator whose source pool is governed by
// per-peer circuit breakers.
type soakWorld struct {
	addr        string // mediator
	addr1       string // S1, fixed across restarts
	addr2       string // S2
	reg         *telemetry.Registry
	medSrv      *session.Server
	closeMed    func() error // idempotent: stop accepting new mediator links
	stopS1      func()       // kill S1 and cut its live links
	startS1     func() error // bring S1 back on addr1
	transitions func() []string
	shutdown    func() error
}

// breakerState reads a peer's breaker gauge from the mediator's
// registry (absent gauge = never tripped = closed).
func (w *soakWorld) breakerState(peer string) resilience.State {
	return resilience.State(w.reg.Gauge("breaker_state", "peer", peer).Value())
}

// startSoakWorld deploys the soak topology. slots/waiting/hint shape
// the mediator's admission gate; a non-nil hold parks every mediator
// session after its protocol completes (the drain arm's in-flight
// lever).
func (h *harness) startSoakWorld(slots, waiting int, hint time.Duration, hold <-chan struct{}) (*soakWorld, error) {
	reg := telemetry.NewRegistry()
	r1, r2, err := h.spec.Generate()
	if err != nil {
		return nil, err
	}
	policy := func(rel string) *credential.Policy {
		return &credential.Policy{Relation: rel,
			Require: []credential.Requirement{{Property: credential.Property{Name: "role", Value: "analyst"}}}}
	}
	w := &soakWorld{reg: reg}
	var tmu sync.Mutex
	var trans []string
	w.transitions = func() []string {
		tmu.Lock()
		defer tmu.Unlock()
		return append([]string(nil), trans...)
	}

	var closers []func() error
	serve := func(srv *session.Server, listen string) (string, error) {
		l, err := transport.Listen(listen)
		if err != nil {
			return "", err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		closers = append(closers, func() error {
			if err := l.Close(); err != nil {
				return err
			}
			return <-done
		})
		return l.Addr(), nil
	}

	// S2: a steady source for the lifetime of the world.
	src2 := &mediation.Source{Name: "S2", Catalog: algebra.MapCatalog{"R2": r2},
		Policies: map[string]*credential.Policy{"R2": policy("R2")}, TrustedCAs: []*rsa.PublicKey{h.ca.PublicKey()}}
	addr2, err := serve(&session.Server{Handler: func(conn transport.Conn) error {
		conn.SetTimeout(30 * time.Second)
		return src2.Serve(conn)
	}}, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.addr2 = addr2

	// S1: restartable. One Source instance persists across restarts (so
	// its stale-attempt registry survives a crash of the serving layer);
	// each restart builds a fresh session.Server on the same address.
	src1 := &mediation.Source{Name: "S1", Catalog: algebra.MapCatalog{"R1": r1},
		Policies: map[string]*credential.Policy{"R1": policy("R1")}, TrustedCAs: []*rsa.PublicKey{h.ca.PublicKey()}}
	var s1mu sync.Mutex
	var s1srv *session.Server
	var s1l *transport.Listener
	var s1done chan error
	w.startS1 = func() error {
		listen := w.addr1
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		var l *transport.Listener
		var err error
		// The fixed port was just freed by stopS1; absorb a racing rebind.
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
		s1srv, s1l, s1done = srv, l, done
		s1mu.Unlock()
		// Only the initial start (before the mediator exists) learns the
		// kernel-assigned port; restarts rebind the same fixed address, so
		// never writing it again keeps the field readable without a lock
		// from the mediator's route and breaker-label closures.
		if w.addr1 == "" {
			w.addr1 = l.Addr()
		}
		return nil
	}
	w.stopS1 = func() {
		s1mu.Lock()
		srv, l, done := s1srv, s1l, s1done
		s1srv, s1l, s1done = nil, nil, nil
		s1mu.Unlock()
		if srv == nil {
			return
		}
		l.Close()
		<-done
		// An already-expired context forces live links closed now: a
		// crash, not a drain.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = srv.Shutdown(ctx)
	}
	if err := w.startS1(); err != nil {
		return nil, err
	}

	// Mediator: its source pool is governed by per-peer breakers whose
	// transitions the soak records (labeled S1/S2, not by port).
	record := func(peer string, from, to resilience.State) {
		name := peer
		switch peer {
		case w.addr1:
			name = "S1"
		case addr2:
			name = "S2"
		}
		tmu.Lock()
		trans = append(trans, name+":"+from.String()+">"+to.String())
		tmu.Unlock()
	}
	pool := &session.Pool{
		Dial: transport.Dial,
		Governor: resilience.NewBreakerSet(resilience.BreakerConfig{
			Window: 8, FailureRate: 0.5, MinSamples: 2,
			OpenTimeout: soakOpenTimeout, Telemetry: reg, OnTransition: record,
		}),
		Telemetry: reg,
	}
	med := &mediation.Mediator{
		Schemas:   map[string]relation.Schema{"R1": r1.Schema(), "R2": r2.Schema()},
		Telemetry: reg,
		Routes: map[string]mediation.Dialer{
			"R1": func() (transport.Conn, error) { return pool.Open(w.addr1) },
			"R2": func() (transport.Conn, error) { return pool.Open(addr2) },
		},
	}
	w.medSrv = &session.Server{
		Handler: func(conn transport.Conn) error {
			conn.SetTimeout(30 * time.Second)
			err := med.HandleSession(conn)
			if hold != nil {
				<-hold
			}
			return err
		},
		Gate:           session.NewGate(slots, waiting, reg),
		Telemetry:      reg,
		RetryAfterHint: hint,
	}
	if w.addr, err = serve(w.medSrv, "127.0.0.1:0"); err != nil {
		w.stopS1()
		return nil, err
	}
	medCloser := closers[len(closers)-1]
	var medOnce sync.Once
	var medErr error
	w.closeMed = func() error {
		medOnce.Do(func() { medErr = medCloser() })
		return medErr
	}
	w.shutdown = func() error {
		first := pool.Close()
		if err := w.closeMed(); err != nil && first == nil {
			first = err
		}
		// closers[0] is S2; the mediator closer is consumed above.
		for _, c := range closers[:len(closers)-1] {
			if err := c(); err != nil && first == nil {
				first = err
			}
		}
		w.stopS1()
		return first
	}
	return w, nil
}

// soakQuery runs one orchestrated query against the world: each attempt
// is a fresh virtual session tagged with the query/attempt IDs, with an
// optional fault plan injected on the first attempt only (so recovery
// is observable rather than re-faulted).
func (h *harness) soakQuery(pool *session.Pool, addr string, params mediation.Params,
	pol resilience.Policy, plan *transport.FaultPlan) (resilience.Result, error) {
	var got *relation.Relation
	r, err := resilience.Do(pol, func(a resilience.Attempt) error {
		st, err := pool.Open(addr)
		if err != nil {
			return err
		}
		defer st.Close()
		var conn transport.Conn = st
		if a.N == 1 && plan != nil {
			conn = transport.WrapFault(st, plan)
		}
		conn.SetTimeout(params.Timeout)
		p := params
		p.QueryID, p.Attempt = a.QueryID, a.N
		out, err := h.client.Query(conn, joinSQL, mediation.ProtocolDAS, p)
		if err != nil {
			return err
		}
		got = out
		return nil
	})
	if err != nil {
		return r, err
	}
	if got.Len() != h.joinSize {
		return r, fmt.Errorf("soak query produced %d tuples, want %d", got.Len(), h.joinSize)
	}
	return r, nil
}

// typedOutcome reports whether a failed query ended in the contract's
// typed vocabulary: retries exhausted, an attributed protocol error, or
// one of the typed transport/session/resilience sentinels.
func typedOutcome(err error) bool {
	var perr *mediation.ProtocolError
	return errors.Is(err, resilience.ErrRetriesExhausted) ||
		errors.As(err, &perr) ||
		errors.Is(err, resilience.ErrCircuitOpen) ||
		errors.Is(err, session.ErrOverloaded) ||
		errors.Is(err, session.ErrDraining) ||
		errors.Is(err, session.ErrMuxClosed) ||
		errors.Is(err, transport.ErrTimeout)
}

// runRestartArm kills S1, lets two attempts fail (tripping the
// mediator's S1 breaker at MinSamples=2), restarts S1 during the second
// backoff and waits out the open timeout, so the third attempt is the
// half-open probe and the query recovers deterministically.
func (h *harness) runRestartArm(w *soakWorld, params mediation.Params, seed uint64) (soakRestart, error) {
	pool := &session.Pool{Dial: transport.Dial,
		Governor: resilience.NewBreakerSet(resilience.BreakerConfig{OpenTimeout: soakOpenTimeout})}
	defer pool.Close()
	// Warm up: one clean query proves the world and caches the links
	// whose death the arm then exercises.
	if _, err := h.soakQuery(pool, w.addr, params,
		resilience.Policy{MaxAttempts: 2, Telemetry: w.reg}, nil); err != nil {
		return soakRestart{}, fmt.Errorf("soak warm-up: %w", err)
	}
	w.stopS1()
	var restartErr error
	sleeps := 0
	pol := resilience.Policy{
		MaxAttempts: 4, BaseDelay: 20 * time.Millisecond, Seed: seed, Telemetry: w.reg,
		Sleep: func(d time.Duration) {
			sleeps++
			if sleeps == 2 {
				// Two recorded dial failures have tripped the breaker.
				// Resurrect S1 and let the open timeout elapse so the
				// next attempt is the half-open probe.
				restartErr = w.startS1()
				time.Sleep(soakOpenTimeout + 100*time.Millisecond)
				return
			}
			time.Sleep(d)
		},
	}
	r, err := h.soakQuery(pool, w.addr, params, pol, nil)
	if restartErr != nil {
		return soakRestart{}, restartErr
	}
	if err != nil {
		return soakRestart{}, fmt.Errorf("restart arm query: %w", err)
	}
	return soakRestart{Attempts: r.Attempts, Recovered: r.Recovered, Transitions: w.transitions()}, nil
}

// runSteadyArm rolls seeded faults over clients concurrent query
// streams for the soak duration while S1 is periodically killed and
// restarted, asserting the typed-outcome invariant on every query.
func (h *harness) runSteadyArm(w *soakWorld, clients int, duration time.Duration,
	params mediation.Params, seed uint64) (soakSteady, []string) {
	arm := soakSteady{Clients: clients}
	var violations []string
	pool := &session.Pool{Dial: transport.Dial,
		Governor: resilience.NewBreakerSet(resilience.BreakerConfig{OpenTimeout: soakOpenTimeout})}
	defer pool.Close()

	// Periodic S1 kill/restart, serialized with the arm's end so the
	// world is whole when the re-close check runs.
	stop := make(chan struct{})
	restarts := make(chan int, 1)
	go func() {
		n := 0
		period := duration / 3
		if period < 300*time.Millisecond {
			period = 300 * time.Millisecond
		}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				restarts <- n
				return
			case <-t.C:
				w.stopS1()
				time.Sleep(80 * time.Millisecond)
				if err := w.startS1(); err != nil {
					restarts <- n
					return
				}
				n++
			}
		}
	}()

	classes := []transport.FaultClass{
		transport.FaultDrop, transport.FaultDelay, transport.FaultDuplicate,
		transport.FaultCorrupt, transport.FaultTruncate, transport.FaultClose,
	}
	deadline := time.Now().Add(duration)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := insecurerand.New(int64(seed) + int64(c)*7919)
			for time.Now().Before(deadline) {
				// ~40% of queries get one seeded fault on their first
				// attempt, split between the send and recv sides.
				var plan *transport.FaultPlan
				if rng.Intn(100) < 40 {
					plan = &transport.FaultPlan{
						Class: classes[rng.Intn(len(classes))],
						Seed:  uint64(rng.Int63()), Telemetry: w.reg,
						SendOp: -1, RecvOp: rng.Intn(3),
					}
					if rng.Intn(2) == 0 {
						plan.SendOp, plan.RecvOp = plan.RecvOp, -1
					}
				}
				pol := resilience.Policy{MaxAttempts: 3, BaseDelay: 15 * time.Millisecond,
					Seed: uint64(rng.Int63()) | 1, Telemetry: w.reg}
				r, err := h.soakQuery(pool, w.addr, params, pol, plan)
				mu.Lock()
				arm.Queries++
				if plan != nil {
					arm.FaultsScheduled++
				}
				switch {
				case err == nil:
					arm.Succeeded++
					if r.Recovered {
						arm.Recovered++
					}
				case errors.Is(err, resilience.ErrRetriesExhausted):
					arm.Exhausted++
				case typedOutcome(err):
					arm.Terminal++
				default:
					violations = append(violations, fmt.Sprintf("steady arm: untyped failure: %v", err))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	arm.SourceRestarts = <-restarts

	// The faults have stopped and S1 is up: the world must heal. Clean
	// queries feed the half-open probes until both breakers sit closed.
	for i := 0; i < 60; i++ {
		if w.breakerState(w.addr1) == resilience.StateClosed && w.breakerState(w.addr2) == resilience.StateClosed {
			break
		}
		_, _ = h.soakQuery(pool, w.addr, params, resilience.Policy{MaxAttempts: 2, Telemetry: w.reg}, nil)
		time.Sleep(50 * time.Millisecond)
	}
	return arm, violations
}

// runOverloadSoakArm floods a 2-slot gate with concurrent orchestrated
// queries; every reject carries a retry-after hint and every query must
// converge to success.
func (h *harness) runOverloadSoakArm(params mediation.Params, seed uint64) (soakOverloadArm, []string, error) {
	const slots, clients = 2, 12
	arm := soakOverloadArm{Slots: slots, Clients: clients}
	var violations []string
	w, err := h.startSoakWorld(slots, 0, 25*time.Millisecond, nil)
	if err != nil {
		return arm, nil, err
	}
	pool := &session.Pool{Dial: transport.Dial,
		Governor: resilience.NewBreakerSet(resilience.BreakerConfig{OpenTimeout: soakOpenTimeout})}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pol := resilience.Policy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond,
				Seed: seed + uint64(c) + 1, Telemetry: w.reg}
			r, err := h.soakQuery(pool, w.addr, params, pol, nil)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				violations = append(violations, fmt.Sprintf("overload arm query %d: %v", c, err))
				return
			}
			arm.Succeeded++
			if r.Recovered {
				arm.Recovered++
			}
		}(c)
	}
	wg.Wait()
	arm.ServerRejects = w.reg.Counter("sessions_rejected").Value()
	if err := pool.Close(); err != nil && len(violations) == 0 {
		violations = append(violations, fmt.Sprintf("overload arm pool close: %v", err))
	}
	return arm, violations, w.shutdown()
}

// runDrainSoakArm verifies graceful drain on a live deployment: with
// one session still in flight, Shutdown must wait for it, a new session
// on the same link must be rejected with ErrDraining, and releasing the
// in-flight session must complete the drain cleanly.
func (h *harness) runDrainSoakArm(params mediation.Params) (soakDrainArm, []string, error) {
	arm := soakDrainArm{}
	var violations []string
	hold := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(hold)
		}
	}
	w, err := h.startSoakWorld(0, 0, 0, hold)
	if err != nil {
		return arm, nil, err
	}
	pool := &session.Pool{Dial: transport.Dial}
	// The query completes client-side; its mediator session then parks
	// on hold — a deterministic in-flight session.
	if _, err := h.soakQuery(pool, w.addr, params, resilience.Policy{MaxAttempts: 1}, nil); err != nil {
		release()
		return arm, nil, errors.Join(fmt.Errorf("drain arm setup query: %w", err), pool.Close(), w.shutdown())
	}
	arm.InFlight = w.medSrv.InFlight()
	if err := w.closeMed(); err != nil {
		violations = append(violations, fmt.Sprintf("drain arm: closing mediator listener: %v", err))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.medSrv.Shutdown(ctx) }()
	for !w.medSrv.Draining() {
		time.Sleep(time.Millisecond)
	}
	// A new session over the still-open physical link: typed reject.
	if _, err := h.soakQuery(pool, w.addr, params, resilience.Policy{MaxAttempts: 1}, nil); !errors.Is(err, session.ErrDraining) {
		violations = append(violations, fmt.Sprintf("drain arm: new session got %v, want ErrDraining", err))
	}
	select {
	case err := <-done:
		violations = append(violations, fmt.Sprintf("drain arm: Shutdown returned %v before the in-flight session finished", err))
	default:
	}
	release()
	if err := <-done; err == nil {
		arm.DrainedClean = true
	} else {
		violations = append(violations, fmt.Sprintf("drain arm: Shutdown: %v", err))
	}
	arm.Completed = w.reg.Counter("sessions_completed").Value()
	arm.RejectedDraining = w.reg.Counter("sessions_rejected_draining").Value()
	arm.SessionsDrained = w.reg.Counter("sessions_drained").Value()
	if err := pool.Close(); err != nil && len(violations) == 0 {
		violations = append(violations, fmt.Sprintf("drain arm pool close: %v", err))
	}
	return arm, violations, w.shutdown()
}

// tableSoak runs the full chaos soak and writes BENCH_soak.json. It
// returns an error when any resilience invariant is violated, so `make
// soak` is a gate, not just a report.
func (h *harness) tableSoak(clients int, duration time.Duration, seed uint64, jsonPath string) error {
	cores := runtime.NumCPU()
	maxprocs := runtime.GOMAXPROCS(0)
	fmt.Printf("Chaos soak — %d query streams × %v of seeded faults and source restarts (runner: %d core(s), GOMAXPROCS=%d, seed %d)\n",
		clients, duration, cores, maxprocs, seed)
	h.client.Ledger = nil
	params := h.params()
	params.Timeout = soakTimeout

	snap := testutil.Snapshot()
	report := soakReport{Cores: cores, GOMAXPROCS: maxprocs,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Seed: seed, Protocol: mediation.ProtocolDAS.String(), DurationNs: duration.Nanoseconds()}
	var violations []string

	w, err := h.startSoakWorld(0, 0, 0, nil)
	if err != nil {
		return err
	}
	if report.Restart, err = h.runRestartArm(w, params, seed); err != nil {
		return errors.Join(err, w.shutdown())
	}
	var steadyViolations []string
	report.Steady, steadyViolations = h.runSteadyArm(w, clients, duration, params, seed)
	violations = append(violations, steadyViolations...)
	report.BreakerReclosed = w.breakerState(w.addr1) == resilience.StateClosed &&
		w.breakerState(w.addr2) == resilience.StateClosed
	report.RetriesAttempted = w.reg.Counter("retries_attempted").Value()
	report.QueriesRecovered = w.reg.Counter("queries_recovered").Value()
	if err := w.shutdown(); err != nil {
		violations = append(violations, fmt.Sprintf("world shutdown: %v", err))
	}

	var armViolations []string
	if report.Overload, armViolations, err = h.runOverloadSoakArm(params, seed); err != nil {
		return err
	}
	violations = append(violations, armViolations...)
	if report.Drain, armViolations, err = h.runDrainSoakArm(params); err != nil {
		return err
	}
	violations = append(violations, armViolations...)

	// Everything is torn down: no goroutine born during the soak may
	// survive it.
	lc := &leakCounter{}
	testutil.CheckGoroutines(lc, snap)
	report.GoroutineLeaks = lc.n
	violations = append(violations, lc.msgs...)
	violations = append(violations, checkSoakInvariants(&report)...)
	report.Violations = violations

	rows := [][]string{{"arm", "queries", "succeeded", "recovered", "notes"}}
	rows = append(rows, []string{"restart", "1", "1", fmt.Sprint(boolInt(report.Restart.Recovered)),
		fmt.Sprintf("%d attempts, breaker %v", report.Restart.Attempts, report.Restart.Transitions)})
	rows = append(rows, []string{"steady", fmt.Sprint(report.Steady.Queries), fmt.Sprint(report.Steady.Succeeded),
		fmt.Sprint(report.Steady.Recovered),
		fmt.Sprintf("%d faulted, %d restarts, %d exhausted, %d terminal", report.Steady.FaultsScheduled,
			report.Steady.SourceRestarts, report.Steady.Exhausted, report.Steady.Terminal)})
	rows = append(rows, []string{"overload", fmt.Sprint(report.Overload.Clients), fmt.Sprint(report.Overload.Succeeded),
		fmt.Sprint(report.Overload.Recovered),
		fmt.Sprintf("%d slots, %d server rejects (hinted)", report.Overload.Slots, report.Overload.ServerRejects)})
	rows = append(rows, []string{"drain", "2", "1", "0",
		fmt.Sprintf("in-flight %d completed, %d rejected draining, clean=%v",
			report.Drain.InFlight, report.Drain.RejectedDraining, report.Drain.DrainedClean)})
	printAligned(rows)
	fmt.Printf("totals: %d retries attempted, %d queries recovered, breakers re-closed=%v, goroutine leaks=%d\n\n",
		report.RetriesAttempted, report.QueriesRecovered, report.BreakerReclosed, report.GoroutineLeaks)

	if err := writeReport(jsonPath, report); err != nil {
		return err
	}
	if len(violations) > 0 {
		return fmt.Errorf("soak: %d invariant violation(s):\n  %s", len(violations), joinLines(violations))
	}
	return nil
}

// checkSoakInvariants enforces the acceptance contract on the final
// report; each failed check is one violation line.
func checkSoakInvariants(r *soakReport) []string {
	var v []string
	if !r.Restart.Recovered || r.Restart.Attempts < 2 {
		v = append(v, fmt.Sprintf("restart arm did not recover (attempts=%d)", r.Restart.Attempts))
	}
	for _, want := range []string{"S1:closed>open", "S1:open>half-open", "S1:half-open>closed"} {
		found := false
		for _, tr := range r.Restart.Transitions {
			if tr == want {
				found = true
				break
			}
		}
		if !found {
			v = append(v, fmt.Sprintf("breaker transition %q missing (got %v)", want, r.Restart.Transitions))
		}
	}
	if r.QueriesRecovered < 1 {
		v = append(v, "no query recovered across the soak")
	}
	if !r.BreakerReclosed {
		v = append(v, "a breaker did not re-close after the faults stopped")
	}
	if r.Steady.Queries < 1 || r.Steady.Succeeded < 1 {
		v = append(v, fmt.Sprintf("steady arm ran %d queries, %d succeeded", r.Steady.Queries, r.Steady.Succeeded))
	}
	if r.Overload.Succeeded != r.Overload.Clients {
		v = append(v, fmt.Sprintf("overload arm: %d/%d queries converged", r.Overload.Succeeded, r.Overload.Clients))
	}
	if r.Overload.ServerRejects < 1 {
		v = append(v, "overload arm produced no hinted rejects")
	}
	if r.Drain.InFlight != 1 || !r.Drain.DrainedClean || r.Drain.RejectedDraining < 1 || r.Drain.SessionsDrained < 1 {
		v = append(v, fmt.Sprintf("drain arm: in-flight=%d clean=%v rejected=%d drained=%d",
			r.Drain.InFlight, r.Drain.DrainedClean, r.Drain.RejectedDraining, r.Drain.SessionsDrained))
	}
	if r.GoroutineLeaks > 0 {
		v = append(v, fmt.Sprintf("%d goroutine leak report(s)", r.GoroutineLeaks))
	}
	return v
}

// leakCounter adapts testutil.CheckGoroutines to a non-test binary.
type leakCounter struct {
	n    int
	msgs []string
}

func (l *leakCounter) Helper() {}

func (l *leakCounter) Errorf(format string, args ...any) {
	l.n++
	l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
