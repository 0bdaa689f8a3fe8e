package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a
// layer. Spans of one query share its id; Parent names the enclosing
// span.
type span struct {
	Name, Parent string
	Query, Lane  int
	Start, Dur   time.Duration // Start is relative to the log's epoch
}

// spanLog keeps the benchmark's own spans in memory until the run ends.
// A lane is a display track: concurrent queries get different lanes so
// that their spans nest properly in a trace viewer.
type spanLog struct {
	mu        sync.Mutex
	epoch     time.Time
	spans     []span
	nextQuery int
	lanes     []bool
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (sl *spanLog) record(s span) {
	sl.mu.Lock()
	sl.spans = append(sl.spans, s)
	sl.mu.Unlock()
}

func (sl *spanLog) beginQuery() (id, lane int) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.nextQuery++
	for i, busy := range sl.lanes {
		if !busy {
			sl.lanes[i] = true
			return sl.nextQuery, i
		}
	}
	sl.lanes = append(sl.lanes, true)
	return sl.nextQuery, len(sl.lanes) - 1
}

func (sl *spanLog) endQuery(lane int) {
	sl.mu.Lock()
	sl.lanes[lane] = false
	sl.mu.Unlock()
}

// hooks returns the per-query hooks of the traced pass: the root span
// bench.query, spans around session.open, each resilience attempt and
// mediation.Client.Query, and one conn.recv_blocked span per Recv.
func (sl *spanLog) hooks(reg *Registry) func() *queryHooks {
	parents := map[string]string{
		"resilience.attempt":     "bench.query",
		"session.open":           "resilience.attempt",
		"mediation.client_query": "resilience.attempt",
		"conn.recv_blocked":      "mediation.client_query",
	}
	return func() *queryHooks {
		id, lane := sl.beginQuery()
		start := time.Now()
		open := func(name string) func() {
			t0 := time.Now()
			return func() {
				sl.record(span{Name: name, Parent: parents[name], Query: id, Lane: lane,
					Start: t0.Sub(sl.epoch), Dur: time.Since(t0)})
			}
		}
		var clock partyClock
		return &queryHooks{
			reg:  reg,
			span: open,
			wrap: func(c Conn) Conn {
				return &timedConn{Conn: c, clock: &clock, blocked: func(d time.Duration) {
					sl.record(span{Name: "conn.recv_blocked", Parent: parents["conn.recv_blocked"], Query: id, Lane: lane,
						Start: time.Since(sl.epoch) - d, Dur: d})
				}}
			},
			finish: func() {
				sl.record(span{Name: "bench.query", Query: id, Lane: lane, Start: start.Sub(sl.epoch), Dur: time.Since(start)})
				sl.endQuery(lane)
			},
		}
	}
}

// writeChromeTrace writes the spans as Chrome trace events (load in
// chrome://tracing or ui.perfetto.dev): one complete event per span,
// args.query carrying the query's id.
func (sl *spanLog) writeChromeTrace(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	sl.mu.Lock()
	events := make([]event, 0, len(sl.spans))
	for _, s := range sl.spans {
		events = append(events, event{Name: s.Name, Cat: workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: s.Lane + 1,
			Args: map[string]any{"query": s.Query, "parent": s.Parent}})
	}
	sl.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedConfig sizes the traced pass.
type tracedConfig struct {
	queries        int
	binDir, logDir string
	untracedP50Ms  float64 // the procs rung's median, for tracing.overhead_ratio
}

type tracedResult struct {
	metrics map[string]float64
	outcome outcome
}

// runTraced restarts the daemons with -telemetry, switches the client's
// registry on, runs a fixed number of queries and reads the program's
// own spans and counters from every party. It adds no instrumentation
// to the program; the benchmark's own spans go to sl.
func runTraced(ds *dataset, cfg tracedConfig, sl *spanLog) (*tracedResult, error) {
	reg := newRegistry()
	dp, cs, _, err := setupOnce(cfg.binDir, ds, true, reg)
	if err != nil {
		return nil, err
	}
	defer dp.kill()
	out := &tracedResult{metrics: map[string]float64{}}
	out.outcome.attempted++
	out.outcome.attempts++

	parties := []string{"mediator", "S1", "S2"}
	readAll := func() ([]traceTotals, error) {
		all := []traceTotals{registryTotals(reg)}
		for _, p := range parties {
			t, err := scrapeTotals(dp.telemetry[p])
			if err != nil {
				return nil, err
			}
			all = append(all, t)
		}
		return all, nil
	}
	before, err := readAll()
	if err != nil {
		return nil, err
	}
	usageBefore, err := usageOf(dp)
	if err != nil {
		return nil, err
	}
	selfBefore := selfCPU()
	run := runLoad(ds.w.clients(), 0, cfg.queries, cs.query, sl.hooks(reg))
	selfAfter := selfCPU()
	usageAfter, err := usageOf(dp)
	if err != nil {
		return nil, err
	}
	after, err := readAll()
	if err != nil {
		return nil, err
	}
	out.outcome.add(run.outcome)
	if err := teardown(dp, cs, cfg.logDir, ds.w.Name+"-traced"); err != nil {
		return nil, err
	}
	if run.failed > 0 {
		return nil, fmt.Errorf("traced pass: %w", run.firstErr)
	}

	m, q := out.metrics, float64(run.attempted)
	delta := func(pick func(traceTotals) map[string]int64, key string) float64 {
		var d int64
		for i := range after {
			d += pick(after[i])[key] - pick(before[i])[key]
		}
		return float64(d)
	}
	for _, p := range tracedPhases {
		m[p.metric] = delta(func(t traceTotals) map[string]int64 { return t.spanNs }, p.span) / q / 1e6
	}
	for _, o := range tracedOps {
		m[o.metric] = delta(func(t traceTotals) map[string]int64 { return t.ops }, o.op) / q
	}
	for _, t := range after {
		m["session.links_dialed"] += float64(t.counters[counterLinksDialed])
		m["session.rejected"] += float64(t.counters[counterRejected])
	}
	m["resilience.attempts_per_query"] = float64(run.attempts) / q
	m["cmd.client_cpu_ms"] = (selfAfter - selfBefore) * 1000 / q
	m["cmd.mediator_cpu_ms"] = (usageAfter[0].cpuS - usageBefore[0].cpuS) * 1000 / q
	m["cmd.source_cpu_ms"] = (usageAfter[1].cpuS - usageBefore[1].cpuS + usageAfter[2].cpuS - usageBefore[2].cpuS) * 1000 / q
	m["cmd.mediator_peak_rss_mb"] = usageAfter[0].peakMB
	m["cmd.source_peak_rss_mb"] = usageAfter[1].peakMB + usageAfter[2].peakMB
	if cfg.untracedP50Ms <= 0 {
		return nil, errors.New("traced pass: no untraced median to compare with")
	}
	m["tracing.overhead_ratio"] = quantileMs(run.latencies, 0.5) / cfg.untracedP50Ms
	return out, nil
}
