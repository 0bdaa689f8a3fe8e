// Package conccheck is the fixture for the concurrency-discipline
// analyzer: goroutine lifecycle with detached annotations, lock
// discipline with guards annotations, lock-order cycles, and channel
// close hygiene. The bounded-queue perimeter rule lives in the sibling
// conccheck_perimeter fixture, which the tests re-home into
// internal/session.
package conccheck

import (
	"sync"
	"time"
)

// Conn mirrors the transport wire interface; the blocking axiom keys on
// the interface name and method shape, not on the defining package.
type Conn interface {
	Send(v any) error
	Recv() (any, error)
}

// ---------------------------------------------------------------------
// Rule 1: goroutine lifecycle

// spin loops forever with no exit of any kind.
func spin() {
	for {
	}
}

// spinForever never returns because spin never does (divergence
// propagates through plain calls).
func spinForever() {
	spin()
}

// hang parks forever on an empty select.
func hang() {
	select {}
}

// pump has a termination path: the done receive returns.
func pump(done chan struct{}, ch chan int) {
	for {
		select {
		case <-done:
			return
		case v := <-ch:
			_ = v
		}
	}
}

// metricsPump runs for the process lifetime by design.
//
// seclint:detached process-lifetime pump, exits with the process
func metricsPump() {
	for {
		time.Sleep(time.Millisecond)
	}
}

// orphanPump is detached but forgot to say why.
//
// seclint:detached
func orphanPump() {
	for {
	}
}

// politePump terminates on its own, so its detached annotation excuses
// nothing.
//
// seclint:detached never actually needed
func politePump(done chan struct{}) {
	<-done
}

// Serve is the party entry point the lifecycle rule keys on: spawns
// reachable from here must provably terminate or be detached.
//
// seclint:entry mediator
func Serve(done chan struct{}) {
	go spin()
	go spinForever()
	go hang()
	go func() {
		for {
		}
	}()
	ch := make(chan int, 1)
	go pump(done, ch)   // terminates via done: no finding
	go metricsPump()    // justified seclint:detached: no finding
	go orphanPump()     // detached (reported at its declaration for the missing why)
	go politePump(done) // terminates anyway; the annotation is flagged unused
}

// ---------------------------------------------------------------------
// Rule 2: lock discipline

type box struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	a, b sync.Mutex
	c    Conn
	ch   chan int
}

// sendUnderLock holds mu across a channel send.
func (x *box) sendUnderLock(v int) {
	x.mu.Lock()
	x.ch <- v
	x.mu.Unlock()
}

// wireUnderLock holds mu across the Conn wire axiom.
func (x *box) wireUnderLock() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.c.Send(1)
}

// sleepUnderRead holds a read lock across time.Sleep.
func (x *box) sleepUnderRead() {
	x.rw.RLock()
	time.Sleep(time.Millisecond)
	x.rw.RUnlock()
}

// waitOne blocks on a receive; harmless on its own.
func (x *box) waitOne() {
	<-x.ch
}

// blockViaHelper reaches the receive through a call, so the summary
// fixpoint must carry the root cause back to this critical section.
func (x *box) blockViaHelper() {
	x.mu.Lock()
	x.waitOne()
	x.mu.Unlock()
}

// funcValueUnderLock calls through a func value while holding mu; the
// analysis cannot see through it, so it is assumed blocking.
func (x *box) funcValueUnderLock(dial func() error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	dial()
}

// waitExternal stands for a waiting primitive behind an opaque boundary.
//
// seclint:blocking parks until the peer responds
func waitExternal() {
}

// annotatedUnderLock calls a declared-blocking function under mu.
func (x *box) annotatedUnderLock() {
	x.mu.Lock()
	waitExternal()
	x.mu.Unlock()
}

// sendFrame is an audited serialization point: the lock exists to make
// the wire call exclusive, so guards suppresses the rule here.
//
// seclint:guards exactly one frame at a time on the shared conn
func (x *box) sendFrame() {
	x.mu.Lock()
	x.c.Send(2)
	x.mu.Unlock()
}

// sendFrameBare claims guards without saying why.
//
// seclint:guards
func (x *box) sendFrameBare() {
	x.mu.Lock()
	x.c.Send(3)
	x.mu.Unlock()
}

// quickPath never blocks, so its guards annotation is dead weight.
//
// seclint:guards nothing here blocks
func (x *box) quickPath() {
	x.mu.Lock()
	x.mu.Unlock()
}

// reacquire takes the same mutex twice.
func (x *box) reacquire() {
	x.mu.Lock()
	x.mu.Lock()
	x.mu.Unlock()
}

// lockedHelper takes mu itself.
func (x *box) lockedHelper() {
	x.mu.Lock()
	x.mu.Unlock()
}

// callReacquire calls a helper that acquires the lock it already holds.
func (x *box) callReacquire() {
	x.mu.Lock()
	x.lockedHelper()
	x.mu.Unlock()
}

// abOrder and baOrder acquire a and b in opposite orders: a cycle in
// the module-wide acquired-before graph.
func (x *box) abOrder() {
	x.a.Lock()
	x.b.Lock()
	x.b.Unlock()
	x.a.Unlock()
}

func (x *box) baOrder() {
	x.b.Lock()
	x.a.Lock()
	x.a.Unlock()
	x.b.Unlock()
}

// Handle makes relay entry-reachable so its finding carries a path.
//
// seclint:entry mediator
func Handle(x *box) {
	x.relay()
}

// relay blocks on a receive inside the critical section.
func (x *box) relay() {
	x.mu.Lock()
	<-x.ch
	x.mu.Unlock()
}

// ---------------------------------------------------------------------
// Rule 3: channel discipline

type hub struct {
	mu      sync.Mutex
	once    sync.Once
	signal  chan int
	twice   chan int
	guarded chan int
	routed  chan int
}

// closeTwice closes the same channel from two sites with no Once.
func (h *hub) closeTwice(a bool) {
	if a {
		close(h.twice)
		return
	}
	close(h.twice)
}

// closeOnceA and closeOnceB both close signal, but under one sync.Once:
// at most one close can ever run.
func (h *hub) closeOnceA() {
	h.once.Do(func() { close(h.signal) })
}

func (h *hub) closeOnceB() {
	h.once.Do(func() { close(h.signal) })
}

// sendRace sends on a channel that closeRace closes with no shared
// lock: the send can race the close and panic.
func (h *hub) sendRace(v int) {
	h.routed <- v
}

func (h *hub) closeRace() {
	close(h.routed)
}

// sendGuarded and closeGuarded serialize on the same mutex, so the
// non-blocking send can never observe a concurrent close.
func (h *hub) sendGuarded(v int) {
	h.mu.Lock()
	select {
	case h.guarded <- v:
	default:
	}
	h.mu.Unlock()
}

func (h *hub) closeGuarded() {
	h.mu.Lock()
	close(h.guarded)
	h.mu.Unlock()
}
