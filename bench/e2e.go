package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// outcome counts what happened to the queries of a pass.
type outcome struct {
	attempted, failed int
	attempts          int // resilience.Do attempts, summed
	firstErr          error
}

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.attempts += p.attempts
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
}

// loadResult is one closed-loop pass of the load generator.
type loadResult struct {
	outcome
	latencies []time.Duration // verified queries only
	elapsed   time.Duration
}

// clientStack is the load generator's side of the deployment: one
// session.Pool as in cmd/medclient, shared by all closed-loop clients.
type clientStack struct {
	ds    *dataset
	links *linkSet
	open  func() (Conn, error)
	close func() error
}

func newClientStack(ds *dataset, addr string, reg *Registry) *clientStack {
	links := &linkSet{}
	pool := newClientPool(links, reg)
	return &clientStack{ds: ds, links: links, open: poolOpener(pool, addr), close: pool.Close}
}

// query runs one verified query through the full stack.
func (cs *clientStack) query(h *queryHooks) (attempts int, err error) {
	res, attempts, err := runQuery(cs.ds.id, cs.ds.w, cs.open, true, h)
	if err != nil {
		return attempts, err
	}
	return attempts, cs.ds.verify(res)
}

// runLoad drives `clients` closed loops: each sends its next query when
// the previous result is verified. The pass ends after `count` queries
// when count > 0, else when `d` has elapsed; a query in flight at the
// deadline is completed and counted. hooks, when set, builds the
// per-query hooks of the traced pass.
func runLoad(clients int, d time.Duration, count int, query func(h *queryHooks) (int, error), hooks func() *queryHooks) loadResult {
	var (
		mu   sync.Mutex
		res  loadResult
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	claim := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if count > 0 {
			if next >= count {
				return false
			}
			next++
			return true
		}
		return time.Now().Before(deadline)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for claim() {
				var h *queryHooks
				if hooks != nil {
					h = hooks()
				}
				t0 := time.Now()
				attempts, err := query(h)
				lat := time.Since(t0)
				if h != nil && h.finish != nil {
					h.finish()
				}
				mu.Lock()
				res.attempted++
				res.attempts += attempts
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else {
					res.latencies = append(res.latencies, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// quantileMs is the q-quantile of the latencies, in milliseconds, by
// linear interpolation between order statistics.
func quantileMs(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[len(s)-1]) / 1e6
	}
	frac := pos - float64(lo)
	return (float64(s[lo])*(1-frac) + float64(s[lo+1])*frac) / 1e6
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupOnce measures one set-up: daemon spawn to first verified (cold)
// query. It returns the running deployment and the client stack that
// made the query.
func setupOnce(binDir string, ds *dataset, traced bool, reg *Registry) (*deployment, *clientStack, float64, error) {
	start := time.Now()
	dp, err := startDeployment(binDir, ds, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	cs := newClientStack(ds, dp.mediator.addr, reg)
	if _, err := cs.query(nil); err != nil {
		cs.close()
		dp.kill()
		return nil, nil, 0, fmt.Errorf("cold query: %w", err)
	}
	return dp, cs, time.Since(start).Seconds(), nil
}

// teardown closes the client's pool and drains the daemons.
func teardown(dp *deployment, cs *clientStack, logDir, tag string) error {
	err := cs.close()
	err = errors.Join(err, dp.checkAlive(), dp.stop())
	if logDir != "" {
		err = errors.Join(err, dp.writeLogs(logDir, tag))
	}
	if err != nil {
		dp.kill()
	}
	return err
}

// e2eConfig sizes one end-to-end run.
type e2eConfig struct {
	binDir, logDir string
	setups         int           // set-ups measured; the last one is kept for the timed run
	warmup, timed  time.Duration // untimed warm-up, then the measured run
}

// e2eResult is what the end-to-end arm measured on one workload.
type e2eResult struct {
	metrics map[string]float64
	outcome outcome
	samples int
	setups  []float64
	timedS  float64
	// p90Ms is the timed run's 90th-percentile latency: reported, but
	// too unsteady on a shared runner to carry a bound.
	p90Ms float64
}

// runE2E is the end-to-end arm: fresh daemons, the cold query that ends
// set-up, an untimed warm-up, then the timed closed-loop run with
// telemetry off.
func runE2E(ds *dataset, cfg e2eConfig) (*e2eResult, error) {
	out, clients := &e2eResult{}, ds.w.clients()
	var dp *deployment
	var cs *clientStack
	for i := 0; i < cfg.setups; i++ {
		if dp != nil {
			if err := teardown(dp, cs, cfg.logDir, fmt.Sprintf("%s-setup%d", ds.w.Name, i-1)); err != nil {
				return nil, err
			}
		}
		var s float64
		var err error
		if dp, cs, s, err = setupOnce(cfg.binDir, ds, false, nil); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, s)
		out.outcome.attempted++
		out.outcome.attempts++
	}
	defer dp.kill() // no-op after a clean teardown

	warm := runLoad(clients, cfg.warmup, 0, cs.query, nil)
	out.outcome.add(warm.outcome)

	before, err := usageOf(dp)
	if err != nil {
		return nil, err
	}
	selfBefore, bytesBefore := selfCPU(), cs.links.bytes()
	run := runLoad(clients, cfg.timed, 0, cs.query, nil)
	selfAfter, bytesAfter := selfCPU(), cs.links.bytes()
	after, err := usageOf(dp)
	if err != nil {
		return nil, err
	}
	out.outcome.add(run.outcome)
	out.samples = len(run.latencies)
	out.timedS = run.elapsed.Seconds()

	if err := teardown(dp, cs, cfg.logDir, ds.w.Name+"-run"); err != nil {
		return nil, err
	}
	if out.samples == 0 {
		return nil, fmt.Errorf("no query completed in the timed run: %v", run.firstErr)
	}
	n := float64(out.samples)
	cpu := selfAfter - selfBefore
	var rss float64
	for i := range after {
		cpu += after[i].cpuS - before[i].cpuS
		rss += after[i].peakMB
	}
	out.p90Ms = quantileMs(run.latencies, 0.9)
	out.metrics = map[string]float64{
		"setup_s":                median(out.setups),
		"query_p50_ms":           quantileMs(run.latencies, 0.5),
		"queries_per_s":          n / out.timedS,
		"cpu_ms_per_query":       cpu * 1000 / n,
		"client_bytes_per_query": float64(bytesAfter-bytesBefore) / float64(run.attempted),
		"daemons_peak_rss_mb":    rss,
	}
	return out, nil
}

// usageOf reads CPU and peak memory of mediator, S1 and S2, in that order.
func usageOf(dp *deployment) ([]procUsage, error) {
	var out []procUsage
	for _, d := range dp.daemons() {
		u, err := readProcUsage(d.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		out = append(out, u)
	}
	return out, nil
}
