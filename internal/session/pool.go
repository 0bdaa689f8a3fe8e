package session

import (
	"fmt"
	"sync"

	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// DialGovernor gates Pool dials per address. It exists so the pool's
// redial cadence can be governed by a per-peer circuit breaker
// (resilience.BreakerSet satisfies it) without this package depending
// on the orchestrator: Allow runs before every physical dial — a typed
// refusal (resilience.ErrCircuitOpen) fails the Open fast instead of
// burning a dial timeout on a peer known to be down — and Record feeds
// the dial outcome back so the breaker's window tracks reality.
type DialGovernor interface {
	// Allow reports whether a dial to addr may proceed; a non-nil error
	// fails the Open with that error (fast-fail).
	Allow(addr string) error
	// Record feeds the outcome of a dial to addr back to the governor
	// (err nil on success).
	Record(addr string, err error)
}

// Pool keeps one persistent multiplexed link per dialed peer. Open
// returns a fresh session over the cached link, dialing only on first
// use; when a cached link has died, Open drops it and redials once
// transparently. This is what turns the mediator's dial-per-query relay
// into a long-lived topology: a thousand queries against the same two
// sources cost one TCP dial each, not a thousand.
//
// A failed dial leaves the address entry undialed — the next Open tries
// again — so a peer that was down during one query does not poison the
// route forever. The redial *cadence* is the Governor's job: with a
// breaker installed, repeated dial failures trip the peer open and
// subsequent Opens fast-fail with ErrCircuitOpen until the probe timer
// re-admits one.
//
// All methods are safe for concurrent use.
type Pool struct {
	// Dial establishes the physical link; nil selects transport.Dial.
	Dial func(addr string) (transport.Conn, error)
	// Governor optionally gates dials per address — typically a
	// resilience.BreakerSet. Nil allows every dial.
	Governor DialGovernor
	// Telemetry optionally records pool and per-link mux activity (links
	// dialed, redials, failed dials per address, sessions opened). Nil
	// records nothing.
	Telemetry *telemetry.Registry

	mu    sync.Mutex
	links map[string]*poolLink
}

// poolLink is one per-address entry: concurrent Opens share a single
// dial through the entry mutex. A nil mux means the entry is undialed
// (fresh, or its last dial failed).
type poolLink struct {
	mu  sync.Mutex
	mux *Mux
}

// Open returns a new session to the peer at addr, dialing the link if
// this is the first use and redialing once if the cached link is dead.
// A dial refused by the Governor or failed outright surfaces
// immediately (the orchestrator owns the retry cadence); the entry
// stays undialed so a later Open tries again.
func (p *Pool) Open(addr string) (*Stream, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		entry := p.entry(addr)
		mux, err := p.ensure(entry, addr, attempt > 0)
		if err != nil {
			lastErr = err
			break
		}
		st, err := mux.Open()
		if err == nil {
			return st, nil
		}
		// The cached link died since the last query; retire it and let
		// the next attempt dial fresh.
		p.drop(addr, entry)
		lastErr = err
	}
	return nil, fmt.Errorf("session: pool open %s: %w", addr, lastErr)
}

// entry returns the current (possibly still undialed) link entry for
// addr, creating it if absent.
func (p *Pool) entry(addr string) *poolLink {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.links == nil {
		p.links = make(map[string]*poolLink)
	}
	e := p.links[addr]
	if e == nil {
		e = &poolLink{}
		p.links[addr] = e
	}
	return e
}

// ensure returns the entry's live mux, dialing under the entry mutex so
// every concurrent Open for the same address shares one physical dial.
// Dial outcomes are reported to the Governor; a failure leaves the
// entry undialed for the next Open.
//
// seclint:guards the entry mutex deliberately covers the blocking dial so concurrent Opens for one address share a single physical dial instead of racing
func (p *Pool) ensure(entry *poolLink, addr string, redial bool) (*Mux, error) {
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if entry.mux != nil {
		return entry.mux, nil
	}
	if p.Governor != nil {
		if err := p.Governor.Allow(addr); err != nil {
			return nil, err
		}
	}
	dial := p.Dial
	if dial == nil {
		dial = transport.Dial
	}
	conn, err := dial(addr)
	if p.Governor != nil {
		p.Governor.Record(addr, err)
	}
	if err != nil {
		if p.Telemetry.Enabled() {
			p.Telemetry.Counter("pool_dial_failures", "addr", addr).Add(1)
		}
		return nil, err
	}
	entry.mux = NewMux(conn, Config{Telemetry: p.Telemetry})
	if p.Telemetry.Enabled() {
		p.Telemetry.Counter("pool_links_dialed").Add(1)
		if redial {
			p.Telemetry.Counter("pool_links_redialed").Add(1)
		}
	}
	return entry.mux, nil
}

// drop retires a link entry: the table slot is freed for a fresh dial
// and the dead mux (if any) is closed.
func (p *Pool) drop(addr string, entry *poolLink) {
	p.mu.Lock()
	if p.links[addr] == entry {
		delete(p.links, addr)
	}
	p.mu.Unlock()
	entry.mu.Lock()
	mux := entry.mux
	entry.mux = nil
	entry.mu.Unlock()
	if mux != nil {
		if err := mux.Close(); err != nil {
			// The link is being discarded; a close error on an
			// already-dead socket carries no information.
			return
		}
	}
}

// Close tears down every cached link. Sessions still running over them
// fail with ErrMuxClosed.
func (p *Pool) Close() error {
	p.mu.Lock()
	links := p.links
	p.links = nil
	p.mu.Unlock()
	var first error
	for _, e := range links {
		e.mu.Lock()
		mux := e.mux
		e.mux = nil
		e.mu.Unlock()
		if mux == nil {
			continue
		}
		if err := mux.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
