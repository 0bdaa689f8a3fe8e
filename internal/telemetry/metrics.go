package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// Registry-scoped metrics: counters, gauges, histograms keyed by name plus
// optional label pairs. Get-or-create is mutex-guarded; hot loops should
// resolve their metric once and then use the returned handle (a single
// atomic op per update). All handles are nil-safe so a nil registry costs
// nothing.

// Counter is a monotonically increasing metric.
type Counter struct {
	name   string
	labels []string
	n      atomic.Int64
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Value returns the current count. Nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-value metric.
type Gauge struct {
	name   string
	labels []string
	v      atomic.Int64
}

// Set records the current value. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the last set value. Nil-safe.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the shared exponential bucket layout: bucket i counts
// observations v < 1<<(histShift+i). With histShift 10 and nanosecond
// observations the buckets span ~1 µs … ~34 s, which covers everything
// from a queue-wait to a full PM run.
const (
	histBuckets = 26
	histShift   = 10
)

// BucketBound returns the exclusive upper bound of histogram bucket i.
func BucketBound(i int) int64 { return 1 << (histShift + i) }

// Histogram counts observations in exponential buckets, tracking sum
// and count. Updates are lock-free atomic adds.
type Histogram struct {
	name    string
	labels  []string
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (conventionally nanoseconds). Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	idx := histBuckets - 1
	for i := 0; i < histBuckets-1; i++ {
		if v < BucketBound(i) {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
}

// HistogramSnapshot is the exported form of a histogram.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets"` // parallel to BucketBound(i); last is +Inf
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Buckets: make([]int64, histBuckets)}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// metricKey renders the map key of a named, labelled metric.
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + strings.Join(labels, ",") + "}"
}

// Counter returns (creating on first use) the named counter. Labels are
// alternating key/value pairs. Nil and inert registries return nil,
// whose methods no-op.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if !r.active() {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{name: name, labels: labels}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if !r.active() {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{name: name, labels: labels}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if !r.active() {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = &Histogram{name: name, labels: labels}
		r.hists[key] = h
	}
	return h
}

// ---------------------------------------------------------------------------
// Process-wide operation counters. The crypto packages (paillier,
// commutative, hybrid, oracle) and the parallel pool register their
// primitive counters here once, at package init, and bump them with a
// single allocation-free atomic add per operation — cheap enough to stay
// always-on (one add is ~1 ns against the ~1 ms modexp it counts).
// Registries snapshot the totals at creation and report deltas.

// Op is one process-wide operation counter.
type Op struct {
	name string
	n    atomic.Int64
}

// Add counts n applications. Nil-safe, allocation-free.
func (o *Op) Add(n int64) {
	if o != nil {
		o.n.Add(n)
	}
}

// Count returns the process-wide total. Nil-safe.
func (o *Op) Count() int64 {
	if o == nil {
		return 0
	}
	return o.n.Load()
}

// Name returns the operation name.
func (o *Op) Name() string {
	if o == nil {
		return ""
	}
	return o.name
}

var (
	globalMu    sync.Mutex
	globalOps   = map[string]*Op{}
	globalHists = map[string]*Histogram{}
)

// CryptoOp returns (creating on first use) the process-wide counter for
// one operation, conventionally named "package.operation"
// ("paillier.encrypt", "commutative.exp", "hybrid.seal", ...).
func CryptoOp(name string) *Op {
	globalMu.Lock()
	defer globalMu.Unlock()
	o, ok := globalOps[name]
	if !ok {
		o = &Op{name: name}
		globalOps[name] = o
	}
	return o
}

// GlobalHistogram returns (creating on first use) a process-wide
// histogram, e.g. the parallel pool's queue-wait distribution.
func GlobalHistogram(name string) *Histogram {
	globalMu.Lock()
	defer globalMu.Unlock()
	h, ok := globalHists[name]
	if !ok {
		h = &Histogram{name: name}
		globalHists[name] = h
	}
	return h
}

// OpTotals returns the current process-wide totals of every registered
// operation counter.
func OpTotals() map[string]int64 {
	globalMu.Lock()
	defer globalMu.Unlock()
	out := make(map[string]int64, len(globalOps))
	for name, o := range globalOps {
		out[name] = o.n.Load()
	}
	return out
}

// OpDeltas returns OpTotals minus the registry's creation-time baseline:
// the operations performed during this registry's lifetime. Operations
// registered after the baseline count from zero.
func (r *Registry) OpDeltas() map[string]int64 {
	if !r.active() {
		return nil
	}
	totals := OpTotals()
	r.mu.Lock()
	base := r.opsBase
	r.mu.Unlock()
	out := make(map[string]int64, len(totals))
	for name, v := range totals {
		if d := v - base[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

// globalHistSnapshots returns sorted name → snapshot of the process-wide
// histograms (cumulative, Prometheus-style).
func globalHistSnapshots() map[string]HistogramSnapshot {
	globalMu.Lock()
	defer globalMu.Unlock()
	out := make(map[string]HistogramSnapshot, len(globalHists))
	for name, h := range globalHists {
		out[name] = h.snapshot()
	}
	return out
}

// sortedNames returns the sorted keys of a map.
func sortedNames[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
