package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// partyClock accumulates, for one party role, the wall time of its
// handler invocations and the time they spent inside Recv.
type partyClock struct {
	wall, recv atomic.Int64 // nanoseconds
}

// linkTally accumulates the traffic of the links between two roles; a
// link reports once, when it is closed.
type linkTally struct {
	bytes, msgs atomic.Int64
}

// timedConn decorates a link handed to a party: it times Recv, remembers
// the largest message sent, and reports the link's byte and message
// counters when it is closed. It adds nothing to the program.
type timedConn struct {
	Conn
	clock   *partyClock
	tally   *linkTally
	largest *largestMessage
	blocked func(d time.Duration) // optional: called with every Recv's duration
	once    sync.Once
}

func (c *timedConn) Send(m Message) error {
	c.largest.offer(m)
	return c.Conn.Send(m)
}

func (c *timedConn) Recv() (Message, error) {
	t0 := time.Now()
	m, err := c.Conn.Recv()
	d := time.Since(t0)
	c.clock.recv.Add(int64(d))
	if c.blocked != nil {
		c.blocked(d)
	}
	return m, err
}

func (c *timedConn) Close() error {
	c.once.Do(func() {
		if c.tally != nil {
			st := c.Conn.Stats()
			c.tally.bytes.Add(st.BytesSent() + st.BytesRecv())
			c.tally.msgs.Add(st.MsgsSent() + st.MsgsRecv())
		}
	})
	return c.Conn.Close()
}

// largestMessage keeps the biggest message seen on any decorated link.
type largestMessage struct {
	mu  sync.Mutex
	msg Message
}

func (l *largestMessage) offer(m Message) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if m.Size() > l.msg.Size() {
		l.msg = m
	}
	l.mu.Unlock()
}

// instruments is the set of clocks and tallies of one in-process rung.
type instruments struct {
	client, mediator, source partyClock
	clientLink, sourceLink   linkTally
	largest                  largestMessage
}

func (in *instruments) clockOf(role string) *partyClock {
	switch role {
	case "mediator":
		return &in.mediator
	case "source":
		return &in.source
	}
	return &in.client
}

// partyHooks wires the instruments into an in-process deployment. The
// traffic of a link is tallied at the mediator's end of the
// mediator↔source links and at the client's end of the client↔mediator
// link, so every link is counted once.
func (in *instruments) partyHooks() *partyHooks {
	return &partyHooks{
		wrap: func(role, peer string, c Conn) Conn {
			tc := &timedConn{Conn: c, clock: in.clockOf(role), largest: &in.largest}
			if role == "mediator" && peer == "source" {
				tc.tally = &in.sourceLink
			}
			return tc
		},
		handler: func(role string, run func() error) error {
			t0 := time.Now()
			err := run()
			in.clockOf(role).wall.Add(int64(time.Since(t0)))
			return err
		},
	}
}

// clientHooks decorates the client's session link of one query.
func (in *instruments) clientHooks() *queryHooks {
	return &queryHooks{wrap: func(c Conn) Conn {
		return &timedConn{Conn: c, clock: &in.client, tally: &in.clientLink, largest: &in.largest}
	}}
}

// ladderConfig sizes the ladder: queries per rung, and the procs rung's
// own query count.
type ladderConfig struct {
	queries, procsQueries int
	binDir, logDir        string
}

// ladderResult carries the ladder's metrics and what the probes need.
type ladderResult struct {
	metrics map[string]float64
	outcome outcome
	largest Message
}

// rungLatencies runs a rung's fixed query count at the workload's client
// count and returns the verified queries' latencies.
func rungLatencies(ds *dataset, queries int, query func(*queryHooks) (int, error), hooks func() *queryHooks, oc *outcome) ([]time.Duration, error) {
	res := runLoad(ds.w.clients(), 0, queries, query, hooks)
	oc.add(res.outcome)
	if res.failed > 0 {
		return nil, res.firstErr
	}
	return res.latencies, nil
}

// rungMedian is the median latency of a rung, in ms.
func rungMedian(ds *dataset, queries int, query func(*queryHooks) (int, error), hooks func() *queryHooks, oc *outcome) (float64, error) {
	lat, err := rungLatencies(ds, queries, query, hooks, oc)
	return quantileMs(lat, 0.5), err
}

// runLadder times the same workload, at the same client count, on each
// layer of the deployment path, all in this process except the last
// rung. A rung's excess over the rung below bounds what optimising that
// layer can buy on this workload.
func runLadder(ds *dataset, cfg ladderConfig) (*ladderResult, error) {
	out := &ladderResult{metrics: map[string]float64{}}
	m := out.metrics
	verify := func(res *Relation, err error) (int, error) {
		if err != nil {
			return 1, err
		}
		return 1, ds.verify(res)
	}

	// Rungs 1 and 2: mediation.Network over in-memory links, trusted
	// plaintext mediator and then the workload's protocol.
	pw := newPairWorld(ds.id, ds.r1, ds.r2)
	var err error
	pairQuery := func(proto string) func(*queryHooks) (int, error) {
		return func(*queryHooks) (int, error) { return verify(pw.query(ds.w, proto)) }
	}
	if m["ladder.plaintext_ms"], err = rungMedian(ds, cfg.queries, pairQuery("plaintext"), nil, &out.outcome); err != nil {
		return nil, fmt.Errorf("plaintext rung: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if m["ladder.pair_ms"], err = rungMedian(ds, cfg.queries, pairQuery(ds.w.Protocol), nil, &out.outcome); err != nil {
		return nil, fmt.Errorf("pair rung: %w", err)
	}
	runtime.ReadMemStats(&after)
	m["ladder.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / float64(cfg.queries)
	m["ladder.alloc_mb_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.queries) / 1e6

	// Rungs 3 to 5: the three parties behind loopback listeners.
	netRung := func(name string, mux, retry bool) (*instruments, error) {
		in := &instruments{}
		world, err := startNetWorld(ds.id, ds.r1, ds.r2, mux, in.partyHooks())
		if err != nil {
			return nil, err
		}
		open := dialOpener(world.addr)
		closePool := func() error { return nil }
		if mux {
			pool := newClientPool(&linkSet{}, nil)
			open, closePool = poolOpener(pool, world.addr), pool.Close
		}
		query := func(h *queryHooks) (int, error) {
			t0 := time.Now()
			res, attempts, err := runQuery(ds.id, ds.w, open, retry, h)
			in.client.wall.Add(int64(time.Since(t0)))
			if err != nil {
				return attempts, err
			}
			return attempts, ds.verify(res)
		}
		m[name], err = rungMedian(ds, cfg.queries, query, in.clientHooks, &out.outcome)
		if err = errors.Join(err, closePool(), world.close()); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return in, nil
	}
	tcp, err := netRung("ladder.tcp_ms", false, false)
	if err != nil {
		return nil, err
	}
	q := float64(cfg.queries)
	m["wire.client_mediator_bytes"] = float64(tcp.clientLink.bytes.Load()) / q
	m["wire.mediator_source_bytes"] = float64(tcp.sourceLink.bytes.Load()) / q
	m["wire.msgs_per_query"] = float64(tcp.clientLink.msgs.Load()+tcp.sourceLink.msgs.Load()) / q
	out.largest = tcp.largest.msg

	mux, err := netRung("ladder.mux_ms", true, false)
	if err != nil {
		return nil, err
	}
	// Busy is handler wall time minus the time inside Recv; the source
	// figures sum the two sources.
	for role, clock := range map[string]*partyClock{"client": &mux.client, "mediator": &mux.mediator, "source": &mux.source} {
		wall, recv := float64(clock.wall.Load()), float64(clock.recv.Load())
		m["mediation."+role+"_busy_ms"] = (wall - recv) / q / 1e6
		m["mediation."+role+"_blocked_ms"] = recv / q / 1e6
	}
	if _, err := netRung("ladder.retry_ms", true, true); err != nil {
		return nil, err
	}

	// Rung 6: the end-to-end arm at a fixed query count.
	dp, cs, _, err := setupOnce(cfg.binDir, ds, false, nil)
	if err != nil {
		return nil, err
	}
	defer dp.kill()
	out.outcome.attempted++
	out.outcome.attempts++
	lat, err := rungLatencies(ds, cfg.procsQueries, cs.query, nil, &out.outcome)
	if err = errors.Join(err, teardown(dp, cs, cfg.logDir, ds.w.Name+"-ladder")); err != nil {
		return nil, fmt.Errorf("procs rung: %w", err)
	}
	m["ladder.procs_ms"], m["ladder.procs_p90_ms"] = quantileMs(lat, 0.5), quantileMs(lat, 0.9)

	m["transport.overhead_ms"] = m["ladder.tcp_ms"] - m["ladder.pair_ms"]
	m["session.overhead_ms"] = m["ladder.mux_ms"] - m["ladder.tcp_ms"]
	m["resilience.overhead_ms"] = m["ladder.retry_ms"] - m["ladder.mux_ms"]
	m["cmd.overhead_ms"] = m["ladder.procs_ms"] - m["ladder.retry_ms"]
	return out, nil
}
