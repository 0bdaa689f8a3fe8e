// Package telemetry is the observability layer of the secure-mediation
// system: hierarchical phase spans mirroring the paper's protocol phases
// (querying, delivery, post-processing), counters/gauges/histograms for
// cryptographic and transport work, and exporters (JSON snapshot,
// Prometheus text format, Chrome trace-event timelines) so live protocol
// runs can be broken down per phase × per party — the measured analogue
// of the paper's Section 6 cost model.
//
// The package is dependency-free (stdlib only) and built around two
// kinds of state:
//
//   - A *Registry owns one measurement scope: the span tree of a run and
//     its registry-scoped metrics. Every party of a protocol run
//     (client, mediator, sources) records into the registry it was
//     handed. A nil *Registry is fully valid and records nothing; all
//     paths through a nil registry are allocation-free, so
//     un-instrumented protocol hot loops pay nothing (asserted by
//     TestNilRegistryZeroAllocs).
//
//   - Process-wide operation counters (CryptoOp, GlobalHistogram) live
//     outside any registry: the crypto packages bump them on every
//     primitive application with a single atomic add. A registry records
//     the totals at creation time, so its snapshot reports the delta —
//     the operations of *this* run.
//
// A registry never travels on a link: telemetry is a per-party,
// per-process concern — each party attaches its own and observes its
// own run.
package telemetry

import (
	"sync"
	"time"
)

// Registry is one measurement scope: a span tree plus named metrics.
// Create with NewRegistry; the zero value (and nil) is inert and
// records nothing.
type Registry struct {
	enabled bool
	start   time.Time

	mu         sync.Mutex
	nextSpanID int64
	spans      []SpanRecord
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	opsBase    map[string]int64
}

// NewRegistry returns an active registry. The process-wide operation
// totals are snapshotted now, so Snapshot reports per-run deltas.
func NewRegistry() *Registry {
	return &Registry{
		enabled:  true,
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		opsBase:  OpTotals(),
	}
}

// active reports whether the registry records anything. Nil-safe.
func (r *Registry) active() bool { return r != nil && r.enabled }

// Enabled reports whether the registry records anything. Nil-safe.
func (r *Registry) Enabled() bool { return r.active() }

// sinceStart returns the registry-relative timestamp of t.
func (r *Registry) sinceStart(t time.Time) int64 { return t.Sub(r.start).Nanoseconds() }
