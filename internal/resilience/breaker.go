package resilience

import (
	"fmt"
	"sync"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
)

// State is a circuit breaker's position.
type State int

const (
	// StateClosed passes traffic and tracks outcomes.
	StateClosed State = iota
	// StateOpen fast-fails everything until the open timeout elapses.
	StateOpen
	// StateHalfOpen admits one probe; its success re-closes, its
	// failure re-opens.
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes a Breaker (and every Breaker of a BreakerSet).
// The zero value is usable: 20-outcome window, at least 5 samples,
// 5s open timeout. A failure that leaves at least half the window
// failed trips the breaker; half-open admits one probe.
type BreakerConfig struct {
	// Window is the sliding outcome window length. Default 20.
	Window int
	// MinSamples is the minimum outcomes in the window before the rate
	// can trip — a single failed first dial must not open the circuit.
	// Default 5.
	MinSamples int
	// OpenTimeout is how long an open breaker fast-fails before
	// admitting a half-open probe. Default 5s.
	OpenTimeout time.Duration
	// Now is the clock; nil selects time.Now. Tests pin it.
	Now func() time.Time
	// Telemetry optionally records breaker activity: the
	// breaker_state{peer} gauge (0 closed / 1 open / 2 half-open) and
	// the breaker_opened / breaker_fastfails / breaker_probes
	// counters. Nil records nothing.
	Telemetry *telemetry.Registry
	// OnTransition, when set, observes every state change. Called
	// without the breaker lock held.
	OnTransition func(peer string, from, to State)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is one peer's circuit breaker. Callers bracket each guarded
// operation with Allow (may refuse with ErrCircuitOpen) and Record
// (feeds the outcome back). All methods are safe for concurrent use.
type Breaker struct {
	cfg  BreakerConfig
	peer string

	mu       sync.Mutex
	state    State
	window   []bool // outcome ring, true = failure
	head     int    // next write position
	count    int    // filled entries
	fails    int    // failures among filled entries
	openedAt time.Time
}

// NewBreaker builds a breaker for one peer.
func NewBreaker(peer string, cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, peer: peer, window: make([]bool, cfg.Window)}
}

// State returns the breaker's current position. The open → half-open
// advance happens on Allow, not here: an untouched open breaker stays
// open until something asks to pass.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow asks whether a guarded operation may proceed. Closed: yes.
// Open: a typed ErrCircuitOpen fast-fail, until OpenTimeout has elapsed
// — then the breaker goes half-open and this call is its one probe.
// Half-open: fast-fail, since the probe is in flight.
// Every successful Allow must be paired with one Record.
func (b *Breaker) Allow() error {
	// Read the (injectable) clock before taking the lock: cfg.Now is a
	// func value, and holding b.mu across it would put an arbitrary
	// callback inside the critical section.
	now := b.cfg.Now()
	b.mu.Lock()
	var transition func()
	defer func() {
		b.mu.Unlock()
		if transition != nil {
			transition()
		}
	}()
	switch b.state {
	case StateClosed:
		return nil
	case StateOpen:
		if now.Sub(b.openedAt) < b.cfg.OpenTimeout {
			b.countLocked("breaker_fastfails")
			return fmt.Errorf("resilience: peer %s: %w", b.peer, ErrCircuitOpen)
		}
		transition = b.transitionLocked(StateHalfOpen)
		b.countLocked("breaker_probes")
		return nil
	default: // StateHalfOpen: the one probe is in flight.
		b.countLocked("breaker_fastfails")
		return fmt.Errorf("resilience: peer %s: %w", b.peer, ErrCircuitOpen)
	}
}

// Record feeds one guarded-operation outcome back (err nil = success).
// In the closed state it slides the outcome window, and a failure that
// leaves at least half of it failed trips the breaker open — a success
// never does, so the dial that built a live link cannot strand its
// breaker open. In the half-open state a success re-closes the breaker
// (window reset) and a failure re-opens it.
func (b *Breaker) Record(err error) {
	failed := err != nil
	b.mu.Lock()
	var transition func()
	defer func() {
		b.mu.Unlock()
		if transition != nil {
			transition()
		}
	}()
	switch b.state {
	case StateClosed:
		b.pushLocked(failed)
		if failed && b.count >= b.cfg.MinSamples && 2*b.fails >= b.count {
			transition = b.tripLocked()
		}
	case StateHalfOpen:
		if failed {
			transition = b.tripLocked()
		} else {
			transition = b.transitionLocked(StateClosed)
			b.resetLocked()
		}
	case StateOpen:
		// A straggler from before the trip; the window is already
		// condemned, nothing to learn.
	}
}

// pushLocked slides one outcome into the window ring.
func (b *Breaker) pushLocked(failed bool) {
	if b.count == len(b.window) {
		// Evict the oldest outcome (the slot head points at).
		if b.window[b.head] {
			b.fails--
		}
	} else {
		b.count++
	}
	b.window[b.head] = failed
	if failed {
		b.fails++
	}
	b.head = (b.head + 1) % len(b.window)
}

// tripLocked opens the breaker and stamps the open timer.
func (b *Breaker) tripLocked() func() {
	t := b.transitionLocked(StateOpen)
	b.openedAt = b.cfg.Now()
	b.countLocked("breaker_opened")
	return t
}

// resetLocked clears the outcome window (breaker re-closed).
func (b *Breaker) resetLocked() {
	b.head, b.count, b.fails = 0, 0, 0
}

// transitionLocked moves the state machine, exports the gauge, and
// returns the deferred OnTransition callback (run unlocked).
func (b *Breaker) transitionLocked(to State) func() {
	from := b.state
	if from == to {
		return nil
	}
	b.state = to
	if b.cfg.Telemetry.Enabled() {
		b.cfg.Telemetry.Gauge("breaker_state", "peer", b.peer).Set(int64(to))
	}
	if b.cfg.OnTransition == nil {
		return nil
	}
	cb, peer := b.cfg.OnTransition, b.peer
	return func() { cb(peer, from, to) }
}

func (b *Breaker) countLocked(name string) {
	if b.cfg.Telemetry.Enabled() {
		b.cfg.Telemetry.Counter(name, "peer", b.peer).Add(1)
	}
}

// BreakerSet keys breakers by peer address and satisfies
// session.DialGovernor, so it installs directly as a session.Pool's
// Governor: Allow gates each dial, Record feeds the outcome back. A
// nil *BreakerSet allows everything.
type BreakerSet struct {
	cfg   BreakerConfig
	mu    sync.Mutex
	peers map[string]*Breaker
}

// NewBreakerSet builds a set sharing one config across peers.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg, peers: make(map[string]*Breaker)}
}

// For returns (creating on first use) the breaker for peer.
func (s *BreakerSet) For(peer string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.peers[peer]
	if b == nil {
		b = NewBreaker(peer, s.cfg)
		s.peers[peer] = b
	}
	return b
}

// Allow implements session.DialGovernor.
func (s *BreakerSet) Allow(addr string) error {
	if s == nil {
		return nil
	}
	return s.For(addr).Allow()
}

// Record implements session.DialGovernor.
func (s *BreakerSet) Record(addr string, err error) {
	if s == nil {
		return
	}
	s.For(addr).Record(err)
}
