package main

// The probe surface. Every function of the program that the benchmark
// calls is called from this file and from no other: the rest of bench/
// imports only the standard library and works with the aliases and
// adapters declared here. When an API of the program changes, the
// benchmark is repaired in this one file (see README.md, "Probe
// surface").

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/crypto/commutative"
	"github.com/secmediation/secmediation/internal/crypto/groups"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/crypto/modexp"
	"github.com/secmediation/secmediation/internal/crypto/oracle"
	"github.com/secmediation/secmediation/internal/crypto/paillier"
	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/keyio"
	"github.com/secmediation/secmediation/internal/mediation"
	"github.com/secmediation/secmediation/internal/parallel"
	"github.com/secmediation/secmediation/internal/pm"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/session"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
	"github.com/secmediation/secmediation/internal/workload"
)

// Aliases the rest of bench/ works with.
type (
	Conn     = transport.Conn
	Message  = transport.Message
	Relation = relation.Relation
	Registry = telemetry.Registry
	Snapshot = telemetry.Snapshot
)

// joinSQL is the one query every workload runs.
const joinSQL = "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id"

// The daemons announce their listeners with these log lines; the
// benchmark starts them on port 0 and reads the address back. A daemon
// that exits its serve loop after SIGTERM logs drainedLine.
var listenLine = regexp.MustCompile(`serving \d+ relation.* at (127\.0\.0\.1:\d+)\s*$`)

const drainedLine = "drained cleanly"

// daemonPackages are the commands the end-to-end arm builds and spawns.
var daemonPackages = []string{"./cmd/mediator", "./cmd/datasource"}

// queryTimeout is Params.Timeout on every workload, and the handlers'
// pre-request deadline in the in-process rungs mirrors the daemons'
// -timeout default.
const (
	queryTimeout   = 60 * time.Second
	handlerTimeout = 2 * time.Minute
	retryAttempts  = 4
)

// protocolOf maps a workload's protocol name to the program's constant.
func protocolOf(name string) (mediation.Protocol, error) {
	switch name {
	case "plaintext":
		return mediation.ProtocolPlaintext, nil
	case "das":
		return mediation.ProtocolDAS, nil
	case "commutative":
		return mediation.ProtocolCommutative, nil
	case "pm":
		return mediation.ProtocolPM, nil
	}
	return 0, fmt.Errorf("unknown protocol %q", name)
}

// paramsOf builds the mediation.Params of a workload: library defaults
// except the deadline and, for PM, the pinned payload mode and buckets.
func paramsOf(w *workloadSpec) mediation.Params {
	p := mediation.Params{Timeout: queryTimeout}
	if w.Protocol == "pm" {
		p.PayloadMode = mediation.PayloadHybrid
		p.Buckets = w.PMBuckets
	}
	return p
}

// ---------------------------------------------------------------------
// Inputs: relations, expected result, keys and credentials.

// generateRelations draws the two relations of a shape from
// workload.JoinSpec. Every draw has Rows = Domain, which JoinSpec turns
// into exactly one row per key, and a relation of multiplicity m is m
// such draws appended; so the key multiplicities, and with them every
// message size and operation count, are the same for every seed, while
// the seed decides the payload bytes.
func generateRelations(s joinShape, seed int64) (r1, r2 *Relation, err error) {
	layers := s.Mult1
	if s.Mult2 > layers {
		layers = s.Mult2
	}
	for i := 0; i < layers; i++ {
		spec := workload.JoinSpec{
			Rows1: s.Keys1, Domain1: s.Keys1,
			Rows2: s.Keys2, Domain2: s.Keys2,
			Overlap: s.Overlap, PayloadCols: 1, PayloadWidth: 16,
			Seed: seed + int64(i)*1000003,
		}
		a, b, err := spec.Generate()
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			r1, r2 = relation.New(a.Schema()), relation.New(b.Schema())
		}
		if i < s.Mult1 {
			if err := appendAll(r1, a); err != nil {
				return nil, nil, err
			}
		}
		if i < s.Mult2 {
			if err := appendAll(r2, b); err != nil {
				return nil, nil, err
			}
		}
	}
	return r1, r2, nil
}

func appendAll(dst, src *Relation) error {
	for _, t := range src.Tuples() {
		if err := dst.Append(t); err != nil {
			return err
		}
	}
	return nil
}

// plaintextJoin is the reference every query result is checked against.
func plaintextJoin(r1, r2 *Relation) (*Relation, error) {
	return algebra.EquiJoin(r1, r2, []string{"id"}, []string{"id"})
}

// digest identifies a result as a multiset of rows: the row count and
// the wrapping sum of the rows' FNV-1a hashes.
type digest struct {
	Rows int
	Sum  uint64
}

func digestOf(r *Relation) digest {
	d := digest{Rows: r.Len()}
	var buf []byte
	for _, t := range r.Tuples() {
		buf = t.Encode(buf[:0])
		h := fnv.New64a()
		h.Write(buf)
		d.Sum += h.Sum64()
	}
	return d
}

func writeCSVFile(r *Relation, path string) error {
	var buf bytes.Buffer
	if err := relation.WriteCSV(r, &buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func schemaFlag(r *Relation) string {
	var b bytes.Buffer
	for i, c := range r.Schema().Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.Name + ":" + c.Kind.String())
	}
	return b.String()
}

// identity is what the preparatory phase leaves behind: the client's
// key and credential as medclient loads them, and the CA key the
// sources trust.
type identity struct {
	key   *rsa.PrivateKey
	creds credential.Set
	ca    *rsa.PublicKey
}

// prepareIdentity does the work of `mmmca init`, `medclient keygen` and
// `mmmca issue`, writes the PEM and JSON files the commands would
// write, and loads the client's half back from disk the way `medclient
// query` does.
func prepareIdentity(dir string) (*identity, error) {
	ca, err := credential.NewAuthority("BenchCA")
	if err != nil {
		return nil, err
	}
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return nil, err
	}
	cred, err := ca.Issue(&key.PublicKey, []credential.Property{{Name: "role", Value: "analyst"}}, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	credJSON, err := json.Marshal(cred)
	if err != nil {
		return nil, err
	}
	if err := keyio.WritePublicKeyFile(filepath.Join(dir, "ca-pub.pem"), ca.PublicKey()); err != nil {
		return nil, err
	}
	if err := keyio.WritePrivateKeyFile(filepath.Join(dir, "client-key.pem"), key); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "cred.json"), credJSON, 0o600); err != nil {
		return nil, err
	}
	id := &identity{ca: ca.PublicKey()}
	if id.key, err = keyio.ReadPrivateKeyFile(filepath.Join(dir, "client-key.pem")); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "cred.json"))
	if err != nil {
		return nil, err
	}
	var c credential.Credential
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, err
	}
	id.creds = credential.Set{&c}
	return id, nil
}

// ---------------------------------------------------------------------
// The client stack of cmd/medclient.

// linkSet remembers the physical links a pool dialed so that their byte
// counters can be read: session.Pool does not expose its muxes.
type linkSet struct {
	mu    sync.Mutex
	conns []Conn
}

func (ls *linkSet) add(c Conn) {
	ls.mu.Lock()
	ls.conns = append(ls.conns, c)
	ls.mu.Unlock()
}

// bytes is the traffic, both directions, of every link dialed so far.
func (ls *linkSet) bytes() int64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	var n int64
	for _, c := range ls.conns {
		n += c.Stats().BytesSent() + c.Stats().BytesRecv()
	}
	return n
}

// newClientPool is medclient's pool: one multiplexed link per mediator
// address, two dial attempts, a breaker per peer.
func newClientPool(links *linkSet, reg *Registry) *session.Pool {
	return &session.Pool{
		Dial: func(addr string) (transport.Conn, error) {
			c, err := transport.DialRetry(addr, transport.RetryPolicy{Attempts: 2})
			if err == nil {
				links.add(c)
			}
			return c, err
		},
		Governor:  resilience.NewBreakerSet(resilience.BreakerConfig{}),
		Telemetry: reg,
	}
}

// poolOpener opens one virtual session per query on the pooled link.
func poolOpener(pool *session.Pool, addr string) func() (Conn, error) {
	return func() (Conn, error) {
		st, err := pool.Open(addr)
		if err != nil {
			return nil, err
		}
		return st, nil
	}
}

// dialOpener dials a fresh TCP link per query (the tcp rung).
func dialOpener(addr string) func() (Conn, error) {
	return func() (Conn, error) { return transport.Dial(addr) }
}

// queryHooks lets the traced pass see inside one query without the
// untraced pass paying for it; every field may be nil.
type queryHooks struct {
	reg    *Registry                // client-side telemetry registry
	wrap   func(Conn) Conn          // decorates the session link
	span   func(name string) func() // opens a span, returns its end
	finish func()                   // called by the load loop when the query is verified
}

func (h *queryHooks) start(name string) func() {
	if h == nil || h.span == nil {
		return func() {}
	}
	return h.span(name)
}

// runQuery is medclient's runOne: one logical query, each attempt a
// fresh session that carries the query and attempt tags. With retry
// false the attempt runs bare (the ladder's rungs below resilience.Do).
// A fresh mediation.Client per query models one medclient invocation per
// query, so a PM query pays its Paillier key generation as it does
// there.
func runQuery(id *identity, w *workloadSpec, open func() (Conn, error), retry bool, h *queryHooks) (*Relation, int, error) {
	proto, err := protocolOf(w.Protocol)
	if err != nil {
		return nil, 0, err
	}
	client := &mediation.Client{PrivateKey: id.key, Credentials: id.creds}
	if h != nil {
		client.Telemetry = h.reg
	}
	params := paramsOf(w)
	var res *Relation
	attempt := func(a resilience.Attempt) error {
		endAttempt := h.start("resilience.attempt")
		defer endAttempt()
		endOpen := h.start("session.open")
		conn, err := open()
		endOpen()
		if err != nil {
			return err
		}
		if h != nil && h.wrap != nil {
			conn = h.wrap(conn)
		}
		defer conn.Close()
		conn.SetTimeout(queryTimeout)
		p := params
		p.QueryID, p.Attempt = a.QueryID, a.N
		endQuery := h.start("mediation.client_query")
		out, err := client.Query(conn, joinSQL, proto, p)
		endQuery()
		if err != nil {
			return err
		}
		res = out
		return nil
	}
	if !retry {
		err := attempt(resilience.Attempt{N: 1})
		return res, 1, err
	}
	r, err := resilience.Do(resilience.Policy{MaxAttempts: retryAttempts}, attempt)
	return res, r.Attempts, err
}

// ---------------------------------------------------------------------
// In-process deployments for the layer ladder.

// partyHooks decorates the links and handlers of an in-process
// deployment; the ladder uses it to time Send/Recv per party and to
// read the byte counters of every link.
type partyHooks struct {
	// wrap decorates a link handed to the named party role ("mediator",
	// "source"); peer names the other end.
	wrap func(role, peer string, c Conn) Conn
	// handler brackets one handler invocation of the role.
	handler func(role string, run func() error) error
}

func (ph *partyHooks) wrapConn(role, peer string, c Conn) Conn {
	if ph == nil || ph.wrap == nil {
		return c
	}
	return ph.wrap(role, peer, c)
}

func (ph *partyHooks) run(role string, f func() error) error {
	if ph == nil || ph.handler == nil {
		return f()
	}
	return ph.handler(role, f)
}

func newSources(id *identity, r1, r2 *Relation) (*mediation.Source, *mediation.Source) {
	mk := func(name, rel string, r *Relation) *mediation.Source {
		return &mediation.Source{
			Name:    name,
			Catalog: algebra.MapCatalog{rel: r},
			Policies: map[string]*credential.Policy{rel: {Relation: rel,
				Require: []credential.Requirement{{Property: credential.Property{Name: "role", Value: "analyst"}}}}},
			TrustedCAs: []*rsa.PublicKey{id.ca},
		}
	}
	return mk("S1", "R1", r1), mk("S2", "R2", r2)
}

// pairWorld runs queries through mediation.Network: the protocol over
// in-memory links, no codec, no sockets.
type pairWorld struct {
	id     *identity
	s1, s2 *mediation.Source
}

func newPairWorld(id *identity, r1, r2 *Relation) *pairWorld {
	s1, s2 := newSources(id, r1, r2)
	return &pairWorld{id: id, s1: s1, s2: s2}
}

// query wires a fresh client and mediator to the two sources, as
// runQuery uses a fresh client per query, and runs the join.
func (pw *pairWorld) query(w *workloadSpec, protoName string) (*Relation, error) {
	proto, err := protocolOf(protoName)
	if err != nil {
		return nil, err
	}
	client := &mediation.Client{PrivateKey: pw.id.key, Credentials: pw.id.creds}
	n, err := mediation.NewNetwork(client, &mediation.Mediator{}, pw.s1, pw.s2)
	if err != nil {
		return nil, err
	}
	p := paramsOf(w)
	p.Timeout = 0 // in-memory links lose no party
	return n.Query(joinSQL, proto, p)
}

// netWorld is the three-party deployment inside this process, over
// loopback TCP: plain accept loops and a dial per session (mux false),
// or session.Server listeners with pooled multiplexed links between
// mediator and sources, as cmd/mediator and cmd/datasource wire them
// (mux true).
type netWorld struct {
	addr  string // the mediator's listen address
	close func() error
}

func startNetWorld(id *identity, r1, r2 *Relation, mux bool, ph *partyHooks) (*netWorld, error) {
	var closers closerStack
	var handlerErr struct {
		sync.Mutex
		err error
	}
	// serve starts one party's listener and returns its address.
	serve := func(role string, handle func(Conn) error) (string, error) {
		addr, stop, err := listenAndServe(mux, func(c Conn) error {
			c.SetTimeout(handlerTimeout)
			err := ph.run(role, func() error { return handle(ph.wrapConn(role, "", c)) })
			if err != nil {
				handlerErr.Lock()
				handlerErr.err = errors.Join(handlerErr.err, err)
				handlerErr.Unlock()
			}
			return err
		})
		if err == nil {
			closers.add(stop)
		}
		return addr, err
	}

	s1, s2 := newSources(id, r1, r2)
	addr1, err := serve("source", s1.Serve)
	if err != nil {
		return nil, errors.Join(err, closers.close())
	}
	addr2, err := serve("source", s2.Serve)
	if err != nil {
		return nil, errors.Join(err, closers.close())
	}
	route := func(peer, addr string) mediation.Dialer {
		return func() (transport.Conn, error) {
			c, err := transport.Dial(addr)
			if err != nil {
				return nil, err
			}
			return ph.wrapConn("mediator", peer, c), nil
		}
	}
	if mux {
		pool := &session.Pool{
			Dial: func(addr string) (transport.Conn, error) {
				return transport.DialRetry(addr, transport.RetryPolicy{Attempts: 5})
			},
			Governor: resilience.NewBreakerSet(resilience.BreakerConfig{}),
		}
		closers.add(pool.Close)
		route = func(peer, addr string) mediation.Dialer {
			return func() (transport.Conn, error) {
				st, err := pool.Open(addr)
				if err != nil {
					return nil, err
				}
				return ph.wrapConn("mediator", peer, st), nil
			}
		}
	}
	med := &mediation.Mediator{
		Schemas: map[string]relation.Schema{"R1": r1.Schema(), "R2": r2.Schema()},
		Routes:  map[string]mediation.Dialer{"R1": route("source", addr1), "R2": route("source", addr2)},
	}
	addr, err := serve("mediator", med.HandleSession)
	if err != nil {
		return nil, errors.Join(err, closers.close())
	}
	return &netWorld{addr: addr, close: func() error {
		err := closers.close()
		handlerErr.Lock()
		defer handlerErr.Unlock()
		return errors.Join(handlerErr.err, err)
	}}, nil
}

// closerStack runs clean-up functions in reverse order of registration.
type closerStack []func() error

func (cs *closerStack) add(f func() error) { *cs = append(*cs, f) }

func (cs closerStack) close() error {
	var errs []error
	for i := len(cs) - 1; i >= 0; i-- {
		errs = append(errs, cs[i]())
	}
	return errors.Join(errs...)
}

// listenAndServe starts a listener on a free loopback port that runs
// handler once per session: behind a session.Server with the daemons'
// gate when mux is set, else by a plain accept loop with nothing of
// internal/session. stop closes the listener and waits for the serve
// loop and its sessions.
func listenAndServe(mux bool, handler func(Conn) error) (addr string, stop func() error, err error) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	if !mux {
		var sessions sync.WaitGroup
		go func() { done <- acceptLoop(l, handler, &sessions) }()
		return l.Addr(), func() error {
			err := errors.Join(l.Close(), <-done)
			sessions.Wait()
			return err
		}, nil
	}
	srv := &session.Server{Handler: handler, Gate: session.NewGate(64, 64, nil)}
	go func() { done <- srv.Serve(l) }()
	return l.Addr(), func() error {
		err := errors.Join(l.Close(), <-done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return errors.Join(err, srv.Shutdown(ctx))
	}, nil
}

// acceptLoop serves one plain session per accepted link. It returns
// when the listener is closed; sessions counts the handlers still
// running.
func acceptLoop(l *transport.Listener, handle func(Conn) error, sessions *sync.WaitGroup) error {
	for {
		c, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			// The handler's error is already noted by the caller's hook.
			_ = handle(c)
			c.Close()
		}()
	}
}

// ---------------------------------------------------------------------
// Telemetry of the traced pass.

func newRegistry() *Registry { return telemetry.NewRegistry() }

// Phase span names and operation counters the traced pass reports; the
// program defines them, the benchmark only reads them.
var tracedPhases = []struct{ metric, span string }{
	{"phase.query_translate_ms", telemetry.PhaseTranslate},
	{"phase.source_encrypt_ms", telemetry.PhaseSourceEncrypt},
	{"phase.cross_encrypt_ms", telemetry.PhaseCrossEncrypt},
	{"phase.mediator_match_ms", telemetry.PhaseMatch},
	{"phase.client_post_filter_ms", telemetry.PhasePostFilter},
}

var tracedOps = []struct{ metric, op string }{
	{"ops.commutative_exp", "commutative.exp"},
	{"ops.oracle_hash", "oracle.hash"},
	{"ops.hybrid_seal", "hybrid.seal"},
	{"ops.hybrid_open", "hybrid.open"},
	{"ops.paillier_encrypt", "paillier.encrypt"},
	{"ops.paillier_decrypt", "paillier.decrypt"},
	{"ops.parallel_tasks", "parallel.tasks"},
}

// Counters of the session layer the traced pass reads from snapshots.
const (
	counterLinksDialed = "pool_links_dialed"
	counterRejected    = "sessions_rejected"
)

// traceTotals is what the traced pass reads from one party's telemetry:
// cumulative span time by span name, operation counts and counters.
type traceTotals struct {
	spanNs   map[string]int64
	ops      map[string]int64
	counters map[string]int64
}

func totalsOf(s Snapshot) traceTotals {
	t := traceTotals{spanNs: map[string]int64{}, ops: s.Ops, counters: map[string]int64{}}
	for _, sp := range s.Spans {
		t.spanNs[sp.Name] += sp.DurNs
	}
	for _, c := range s.Counters {
		t.counters[c.Name] += c.Value
	}
	return t
}

// registryTotals reads the load generator's own registry.
func registryTotals(reg *Registry) traceTotals { return totalsOf(reg.Snapshot()) }

// scrapeTotals reads a daemon's /snapshot endpoint.
func scrapeTotals(url string) (traceTotals, error) {
	resp, err := http.Get(url)
	if err != nil {
		return traceTotals{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return traceTotals{}, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return traceTotals{}, fmt.Errorf("GET %s: %w", url, err)
	}
	return totalsOf(s), nil
}

// ---------------------------------------------------------------------
// Micro-probes: direct calls into each module.

// sink keeps the results of probes that return no error alive.
var sink *big.Int

// probe is one timed operation. The harness in probes.go calls op in
// batches and converts the median ns per op; the unit comes from
// BENCHMARK.json.
type probe struct {
	name string
	op   func() error
	// per divides ns per op into ns per row, pair, coefficient or KB;
	// zero means one.
	per float64
	// ms reports milliseconds instead of nanoseconds.
	ms bool
	// allocs reports heap allocations per op instead of time.
	allocs bool
	// mbPerOp, when set, turns the time into MB/s for that many MB.
	mbPerOp float64
}

// fixedMetric is a per-layer value that is computed, not timed.
type fixedMetric struct {
	name  string
	value float64
}

// probeInput is what the probes are sized by: the workload's relations,
// its expected join, and the largest message it put on a link.
type probeInput struct {
	id       *identity
	w        *workloadSpec
	r1, r2   *Relation
	expected *Relation
	largest  Message
}

// buildProbes prepares every micro-probe. The returned cleanup stops
// the echo servers the transport and session probes talk to.
func buildProbes(in probeInput) (probes []probe, fixed []fixedMetric, cleanup func() error, err error) {
	var closers closerStack
	cleanup = func() error { return closers.close() }
	fail := func(err error) ([]probe, []fixedMetric, func() error, error) {
		return nil, nil, nil, errors.Join(err, cleanup())
	}
	add := func(p probe) { probes = append(probes, p) }

	// --- modexp, commutative, oracle: the commutative protocol's work.
	g := groups.MODP2048()
	mod, err := modexp.NewModulus(g.P)
	if err != nil {
		return fail(err)
	}
	o := oracle.New(g, "bench")
	x := o.HashValue(relation.Int(42))
	eShort, err := g.RandomShortExponent(rand.Reader)
	if err != nil {
		return fail(err)
	}
	eFull, err := g.RandomExponent(rand.Reader)
	if err != nil {
		return fail(err)
	}
	enShort, err := modexp.NewEngine(mod, eShort)
	if err != nil {
		return fail(err)
	}
	enFull, err := modexp.NewEngine(mod, eFull)
	if err != nil {
		return fail(err)
	}
	enCT, err := modexp.NewEngineConstantTime(mod, eShort, g.ShortExponentBits())
	if err != nil {
		return fail(err)
	}
	add(probe{name: "modexp.exp_short_ns", op: func() error { sink = enShort.Exp(x); return nil }})
	add(probe{name: "modexp.exp_full_ns", op: func() error { sink = enFull.Exp(x); return nil }})
	add(probe{name: "modexp.exp_ct_ns", op: func() error { sink = enCT.ExpConstantTime(x); return nil }})
	add(probe{name: "modexp.exp_allocs", allocs: true, op: func() error { sink = enShort.Exp(x); return nil }})

	k1, err := commutative.GenerateKey(g, rand.Reader)
	if err != nil {
		return fail(err)
	}
	k2, err := commutative.GenerateKey(g, rand.Reader)
	if err != nil {
		return fail(err)
	}
	c1, err := k1.Encrypt(x)
	if err != nil {
		return fail(err)
	}
	add(probe{name: "commutative.keygen_ns", op: func() error { _, err := commutative.GenerateKey(g, rand.Reader); return err }})
	add(probe{name: "commutative.encrypt_ns", op: func() error { _, err := k1.Encrypt(x); return err }})
	add(probe{name: "commutative.reencrypt_ns", op: func() error { _, err := k2.ReEncrypt(c1); return err }})
	add(probe{name: "commutative.decrypt_ns", op: func() error { _, err := k1.Decrypt(c1); return err }})
	v := relation.Int(19920817)
	add(probe{name: "oracle.hash_ns", op: func() error { sink = o.HashValue(v); return nil }})

	// --- paillier, pm: the PM protocol's work, at the default key size
	// and the workload's key domain.
	const paillierBits = 1024
	sk, err := paillier.GenerateKey(rand.Reader, paillierBits)
	if err != nil {
		return fail(err)
	}
	freshPub := func() *paillier.PublicKey {
		return &paillier.PublicKey{N: sk.N, NSquared: new(big.Int).Mul(sk.N, sk.N)}
	}
	pk := freshPub()
	if err := pk.Precompute(rand.Reader); err != nil {
		return fail(err)
	}
	m := big.NewInt(123456789)
	ct, err := pk.Encrypt(rand.Reader, m)
	if err != nil {
		return fail(err)
	}
	add(probe{name: "paillier.keygen_ms", ms: true, op: func() error { _, err := paillier.GenerateKey(rand.Reader, paillierBits); return err }})
	add(probe{name: "paillier.precompute_ms", ms: true, op: func() error { return freshPub().Precompute(rand.Reader) }})
	add(probe{name: "paillier.encrypt_ns", op: func() error { _, err := pk.Encrypt(rand.Reader, m); return err }})
	add(probe{name: "paillier.decrypt_ns", op: func() error { _, err := sk.Decrypt(ct); return err }})
	add(probe{name: "paillier.mulconst_ns", op: func() error { _ = pk.MulConst(ct, sk.N); return nil }})

	groups2, err := in.r2.GroupByColumns([]string{"id"})
	if err != nil {
		return fail(err)
	}
	roots := make([]*big.Int, len(groups2))
	for i, grp := range groups2 {
		roots[i] = pm.RootOfBytes(relation.EncodeValues(grp.Key, nil))
	}
	nBuckets := in.w.PMBuckets
	if nBuckets < 1 {
		nBuckets = 4
	}
	buckets, err := pm.BuildBuckets(roots, nBuckets, pk.N)
	if err != nil {
		return fail(err)
	}
	encBuckets, err := buckets.Encrypt(pk, 0)
	if err != nil {
		return fail(err)
	}
	codec, err := pm.NewCodec(pk)
	if err != nil {
		return fail(err)
	}
	packed, err := codec.Pack(roots[0], make([]byte, hybrid.SessionKeyLen+8))
	if err != nil {
		return fail(err)
	}
	nCoeffs := float64(len(buckets.Polys) * (buckets.MaxDegree() + 1))
	add(probe{name: "pm.build_buckets_ns_per_root", per: float64(len(roots)), op: func() error { _, err := pm.BuildBuckets(roots, nBuckets, pk.N); return err }})
	add(probe{name: "pm.encrypt_buckets_ns_per_coeff", per: nCoeffs, op: func() error { _, err := buckets.Encrypt(pk, 0); return err }})
	add(probe{name: "pm.masked_eval_ns", op: func() error { _, err := encBuckets.MaskedEval(pk, roots[0], packed); return err }})

	// --- hybrid, das: the DAS protocol's work on the workload's relations.
	pub := &in.id.key.PublicKey
	sess, err := hybrid.NewSession(pub)
	if err != nil {
		return fail(err)
	}
	recv, err := hybrid.NewReceiver(in.id.key, sess.WrappedKey())
	if err != nil {
		return fail(err)
	}
	row := in.r2.Tuple(0).Encode(nil)
	aad := []byte("das:etuple:R2")
	sealed, err := sess.Seal(row, aad)
	if err != nil {
		return fail(err)
	}
	add(probe{name: "hybrid.wrap_ns", op: func() error { _, err := hybrid.NewSession(pub); return err }})
	add(probe{name: "hybrid.unwrap_ns", op: func() error { _, err := hybrid.NewReceiver(in.id.key, sess.WrappedKey()); return err }})
	add(probe{name: "hybrid.seal_ns", op: func() error { _, err := sess.Seal(row, aad); return err }})
	add(probe{name: "hybrid.open_ns", op: func() error { _, err := recv.Open(sealed, aad); return err }})

	defaults := mediation.Params{}
	indexTables := func(r *Relation) ([]*das.IndexTable, error) {
		dom, err := r.ActiveDomain("id")
		if err != nil {
			return nil, err
		}
		parts, err := das.PartitionDomain(dom, dasDefaultPartitions, defaults.Strategy)
		if err != nil {
			return nil, err
		}
		it, err := das.BuildIndexTable("id", parts)
		if err != nil {
			return nil, err
		}
		return []*das.IndexTable{it}, nil
	}
	its1, err := indexTables(in.r1)
	if err != nil {
		return fail(err)
	}
	its2, err := indexTables(in.r2)
	if err != nil {
		return fail(err)
	}
	joinCols := []string{"id"}
	er1, sess1, err := das.EncryptRelation(in.r1, joinCols, its1, pub, 0)
	if err != nil {
		return fail(err)
	}
	er2, sess2, err := das.EncryptRelation(in.r2, joinCols, its2, pub, 0)
	if err != nil {
		return fail(err)
	}
	sq, err := das.BuildServerQuery(its1, its2)
	if err != nil {
		return fail(err)
	}
	sres, err := das.ExecuteServerQuery(er1, er2, sq)
	if err != nil {
		return fail(err)
	}
	recv1, err := hybrid.NewReceiver(in.id.key, sess1.WrappedKey())
	if err != nil {
		return fail(err)
	}
	recv2, err := hybrid.NewReceiver(in.id.key, sess2.WrappedKey())
	if err != nil {
		return fail(err)
	}
	pairs := float64(len(sres.Pairs))
	joinRows := float64(in.expected.Len())
	add(probe{name: "das.encrypt_relation_ns_per_row", per: float64(in.r2.Len()), op: func() error {
		_, _, err := das.EncryptRelation(in.r2, joinCols, its2, pub, 0)
		return err
	}})
	add(probe{name: "das.server_query_ns_per_pair", per: pairs, op: func() error { _, err := das.ExecuteServerQuery(er1, er2, sq); return err }})
	add(probe{name: "das.decrypt_result_ns_per_pair", per: pairs, op: func() error {
		_, _, err := das.DecryptServerResult(sres, recv1, recv2, in.r1.Schema(), in.r2.Schema(), joinCols, joinCols, 0)
		return err
	}})
	fixed = append(fixed,
		fixedMetric{"das.superset_ratio", pairs / joinRows},
		fixedMetric{"das.opens_per_result_row", 2 * pairs / joinRows})

	// --- the layers every query crosses once.
	cred := in.id.creds[0]
	add(probe{name: "credential.verify_ns", op: func() error { return cred.Verify(in.id.ca, time.Now()) }})
	add(probe{name: "sqlparse.parse_ns", op: func() error { _, err := sqlparse.Parse(joinSQL); return err }})
	add(probe{name: "algebra.equijoin_ns_per_row", per: joinRows, op: func() error { _, err := plaintextJoin(in.r1, in.r2); return err }})
	var csv bytes.Buffer
	if err := relation.WriteCSV(in.r2, &csv); err != nil {
		return fail(err)
	}
	add(probe{name: "relation.csv_read_ns_per_row", per: float64(in.r2.Len()), op: func() error {
		_, err := relation.ReadCSV("R2", bytes.NewReader(csv.Bytes()))
		return err
	}})
	const tasks = 1024
	add(probe{name: "parallel.task_overhead_ns", per: tasks, op: func() error {
		return parallel.ForEach(tasks, 0, func(int) error { return nil })
	}})

	// --- transport: codec on a DAS server result of the workload's
	// relations, framing on the workload's largest message, links.
	body, err := transport.Encode(sres)
	if err != nil {
		return fail(err)
	}
	kb := float64(len(body)) / 1024
	resMsg, err := transport.NewMessage("bench.result", sres)
	if err != nil {
		return fail(err)
	}
	add(probe{name: "transport.encode_ns_per_kb", per: kb, op: func() error { _, err := transport.NewMessage("bench.result", sres); return err }})
	add(probe{name: "transport.decode_ns_per_kb", per: kb, op: func() error {
		payload, err := transport.Payload(resMsg)
		if err != nil {
			return err
		}
		var out das.ServerResult
		return transport.Decode(payload, &out)
	}})
	add(probe{name: "transport.encode_allocs_per_msg", allocs: true, op: func() error { _, err := transport.NewMessage("bench.result", sres); return err }})

	small, err := transport.NewMessage("bench.ping", uint64(1))
	if err != nil {
		return fail(err)
	}
	const bulkMB = 1
	bulk := Message{Type: "bench.bulk", Body: make([]byte, bulkMB<<20)}
	echo := func(c Conn) error {
		for {
			msg, err := c.Recv()
			if err != nil {
				return nil // the peer hung up: the probe is over
			}
			if msg.Type == bulk.Type {
				msg = small
			}
			if err := c.Send(msg); err != nil {
				return err
			}
		}
	}
	pingPong := func(c Conn, msg Message) func() error {
		return func() error {
			if err := c.Send(msg); err != nil {
				return err
			}
			_, err := c.Recv()
			return err
		}
	}

	pa, pb := transport.Pair()
	pairDone := make(chan error, 1)
	go func() { pairDone <- echo(pb) }()
	closers.add(func() error {
		err := pa.Close()
		return errors.Join(err, <-pairDone, pb.Close())
	})
	add(probe{name: "transport.pair_rtt_ns", op: pingPong(pa, small)})

	tcpAddr, stopTCP, err := listenAndServe(false, echo)
	if err != nil {
		return fail(err)
	}
	closers.add(stopTCP)
	tc, err := transport.Dial(tcpAddr)
	if err != nil {
		return fail(err)
	}
	closers.add(tc.Close)
	add(probe{name: "transport.tcp_rtt_ns", op: pingPong(tc, small)})
	add(probe{name: "transport.tcp_mb_per_s", mbPerOp: bulkMB, op: pingPong(tc, bulk)})

	// Wire overhead of the largest message: bytes a fresh TCP link
	// writes for it over the bytes of the message itself.
	largest := in.largest
	if largest.Size() == 0 {
		largest = resMsg
	}
	wc, err := transport.Dial(tcpAddr)
	if err != nil {
		return fail(err)
	}
	err = wc.Send(largest)
	if err == nil {
		_, err = wc.Recv()
	}
	wire := float64(wc.Stats().BytesSent())
	if err = errors.Join(err, wc.Close()); err != nil {
		return fail(err)
	}
	fixed = append(fixed, fixedMetric{"transport.wire_overhead_ratio", wire / float64(largest.Size())})

	// --- session, resilience: a session.Server with the echo handler
	// behind a pooled multiplexed link.
	muxAddr, stopMux, err := listenAndServe(true, echo)
	if err != nil {
		return fail(err)
	}
	closers.add(stopMux)
	pool := &session.Pool{}
	closers.add(pool.Close)
	st, err := pool.Open(muxAddr)
	if err != nil {
		return fail(err)
	}
	closers.add(st.Close)
	add(probe{name: "session.open_ns", op: func() error {
		s, err := pool.Open(muxAddr)
		if err != nil {
			return err
		}
		err = pingPong(s, small)()
		return errors.Join(err, s.Close())
	}})
	add(probe{name: "session.mux_rtt_ns", op: pingPong(st, small)})
	add(probe{name: "session.mux_mb_per_s", mbPerOp: bulkMB, op: pingPong(st, bulk)})
	gate := session.NewGate(64, 64, nil)
	add(probe{name: "session.gate_acquire_ns", op: func() error {
		err := gate.Acquire()
		gate.Release()
		return err
	}})
	add(probe{name: "resilience.do_noop_ns", op: func() error {
		_, err := resilience.Do(resilience.Policy{MaxAttempts: retryAttempts}, func(resilience.Attempt) error { return nil })
		return err
	}})
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{})
	add(probe{name: "resilience.breaker_allow_ns", op: func() error {
		err := breakers.Allow("127.0.0.1:1")
		breakers.Record("127.0.0.1:1", nil)
		return err
	}})
	return probes, fixed, cleanup, nil
}

// dasDefaultPartitions is Params.Partitions' library default (the
// defaulting method is unexported).
const dasDefaultPartitions = 16
