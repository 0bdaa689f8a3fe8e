// Package leakage provides the instrumentation behind the paper's Table 1
// (extra information disclosed to client and mediator) and Table 2
// (applied cryptographic primitives): a thread-safe ledger into which the
// protocol implementations record (a) every quantity a party could derive
// from the messages it sees and (b) every cryptographic primitive a party
// applies. The medbench harness and the security tests read the ledger
// back to regenerate and assert the tables.
//
// The ledger holds no cost. Compute time and traffic (the Section 6 cost
// matrix) are the phase spans and transport counters of
// internal/telemetry, and message sizes are held to the transcript-shape
// tests.
package leakage

import (
	"sort"
	"sync"
)

// Standard party names used across the protocols.
const (
	PartyClient   = "client"
	PartyMediator = "mediator"
)

// PartySource names a datasource party.
func PartySource(name string) string { return "source:" + name }

// Ledger accumulates observations and primitive-usage counts. A nil Ledger
// is valid and records nothing, so un-instrumented protocol runs pay no
// cost.
type Ledger struct {
	mu         sync.Mutex
	observed   map[string]map[string]int64 // party -> item -> value
	primitives map[string]map[string]int64 // party -> primitive -> count
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		observed:   make(map[string]map[string]int64),
		primitives: make(map[string]map[string]int64),
	}
}

// Observe records that a party could learn item = value from the protocol
// messages it handles (e.g. mediator observes "|R1|" = 500). Repeated
// observations of the same item overwrite — the quantity, not the count,
// is the leakage.
func (l *Ledger) Observe(party, item string, value int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	m, ok := l.observed[party]
	if !ok {
		m = make(map[string]int64)
		l.observed[party] = m
	}
	m[item] = value
}

// UsePrimitive counts n applications of a cryptographic primitive by a
// party (e.g. "commutative-encryption", "hash", "homomorphic-encryption").
func (l *Ledger) UsePrimitive(party, primitive string, n int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	m, ok := l.primitives[party]
	if !ok {
		m = make(map[string]int64)
		l.primitives[party] = m
	}
	m[primitive] += n
}

// Observed returns the value a party observed for an item.
func (l *Ledger) Observed(party, item string) (int64, bool) {
	if l == nil {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.observed[party][item]
	return v, ok
}

// ObservedItems returns a copy of everything a party observed.
func (l *Ledger) ObservedItems(party string) map[string]int64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int64, len(l.observed[party]))
	for k, v := range l.observed[party] {
		out[k] = v
	}
	return out
}

// PrimitiveCount returns how often a party used a primitive.
func (l *Ledger) PrimitiveCount(party, primitive string) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.primitives[party][primitive]
}

// Primitives returns the distinct primitives a party applied, sorted.
func (l *Ledger) Primitives(party string) []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for p := range l.primitives[party] {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// AllPrimitives returns the union of primitives applied by any party,
// sorted — the per-protocol row of Table 2.
func (l *Ledger) AllPrimitives() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	set := map[string]bool{}
	for _, m := range l.primitives {
		for p := range m {
			set[p] = true
		}
	}
	var out []string
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
