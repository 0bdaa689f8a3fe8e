// Command mediator runs the MMM mediator: it accepts client sessions over
// TCP, decomposes global JOIN queries against its configured global schema
// (the "embedding"), dials the owning datasources, and executes the
// mediator side of the selected delivery-phase protocol — over ciphertexts
// only.
//
// Usage:
//
//	mediator -listen :7100 \
//	    -route "Orders=127.0.0.1:7101;id:INT,item:TEXT" \
//	    -route "Customers=127.0.0.1:7102;id:INT,city:TEXT" \
//	    -hint "Orders=role" -hint "Customers=role"
//
// Each -route names a relation, the address of its datasource, and the
// relation's schema as a comma-separated "col:TYPE" list.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/secmediation/secmediation/internal/mediation"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/session"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// dialSource opens one link to a datasource; main swaps in a session
// over the pooled link once the flags are parsed. A failed dial is not
// retried here: the attempt fails at once with a retryable error, and
// the client's retry loop owns the backoff.
var dialSource = transport.Dial

func main() {
	listen := flag.String("listen", ":7100", "listen address")
	var routes, hints stringList
	flag.Var(&routes, "route", `relation route as "Rel=host:port;col:TYPE,col:TYPE" (repeatable)`)
	flag.Var(&hints, "hint", "credential hint as Rel=propertyName (repeatable)")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /trace and /snapshot on this address (empty disables)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-operation deadline on accepted client links before the request arrives (0 disables)")
	maxMsg := flag.Int64("maxmsg", 0, "inbound message size limit in bytes (0 = default 256 MiB)")
	maxSessions := flag.Int("max-sessions", 64, "max concurrent protocol sessions (0 = unlimited)")
	maxWaiting := flag.Int("max-waiting", 64, "sessions allowed to queue for a slot before overload rejects")
	drain := flag.Duration("drain", 20*time.Second, "on SIGTERM/SIGINT, let in-flight sessions finish for up to this long before forcing links closed")
	flag.Parse()

	med, err := buildMediator(routes, hints)
	if err != nil {
		log.Fatalf("mediator: %v", err)
	}
	if *telemetryAddr != "" {
		med.Telemetry = telemetry.NewRegistry()
		telemetry.Serve(*telemetryAddr, med.Telemetry)
		log.Printf("telemetry endpoints at http://%s/metrics", *telemetryAddr)
	}
	// One persistent multiplexed link per datasource: every session dials
	// through the pool, so overlapping queries share physical links
	// instead of paying a TCP dial each.
	// A per-peer circuit breaker governs the pool's dials: it sees every
	// physical dial, and while one datasource stays down, sessions
	// needing it fast-fail with resilience.ErrCircuitOpen instead of
	// burning a dial timeout each, and sessions on healthy sources are
	// unaffected.
	pool := &session.Pool{
		Governor:  resilience.NewBreakerSet(resilience.BreakerConfig{Telemetry: med.Telemetry}),
		Telemetry: med.Telemetry,
	}
	defer pool.Close()
	dialSource = func(addr string) (transport.Conn, error) {
		st, err := pool.Open(addr)
		if err != nil {
			return nil, err
		}
		return st, nil
	}
	l, err := transport.Listen(*listen)
	if err != nil {
		log.Fatalf("mediator: %v", err)
	}
	l.MaxMessage = *maxMsg
	log.Printf("mediator serving %d relation route(s) at %s", len(med.Routes), l.Addr())
	srv := &session.Server{
		Handler: func(conn transport.Conn) error {
			// Bound the wait for the request itself; once it arrives, its
			// Params.Timeout (the client's choice) re-arms the link.
			conn.SetTimeout(*timeout)
			return med.HandleSession(conn)
		},
		Gate:           session.NewGate(*maxSessions, *maxWaiting, med.Telemetry),
		Telemetry:      med.Telemetry,
		Logf:           log.Printf,
		RetryAfterHint: 500 * time.Millisecond,
	}
	// SIGTERM/SIGINT starts a graceful drain: close the listener (Serve
	// returns), then let in-flight sessions finish before closing links.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("mediator: received %v, draining (deadline %v)", s, *drain)
		l.Close()
	}()
	if err := srv.Serve(session.AcceptTimeout(l, *timeout)); err != nil {
		log.Fatalf("mediator: serve: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("mediator: drain deadline exceeded, %d session(s) forced closed: %v", srv.InFlight(), err)
	}
	log.Printf("mediator: drained cleanly")
}

func buildMediator(routes, hints stringList) (*mediation.Mediator, error) {
	med := &mediation.Mediator{
		Schemas:   map[string]relation.Schema{},
		Routes:    map[string]mediation.Dialer{},
		CredHints: map[string][]string{},
	}
	for _, spec := range routes {
		relName, rest, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("-route %q: want Rel=addr;schema", spec)
		}
		addr, schemaSpec, ok := strings.Cut(rest, ";")
		if !ok {
			return nil, fmt.Errorf("-route %q: want Rel=addr;schema", spec)
		}
		schema, err := parseSchema(relName, schemaSpec)
		if err != nil {
			return nil, fmt.Errorf("-route %q: %w", spec, err)
		}
		med.Schemas[relName] = schema
		target := addr
		med.Routes[relName] = func() (transport.Conn, error) { return dialSource(target) }
	}
	if len(med.Routes) == 0 {
		return nil, fmt.Errorf("at least one -route is required")
	}
	for _, spec := range hints {
		relName, prop, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("-hint %q: want Rel=property", spec)
		}
		med.CredHints[relName] = append(med.CredHints[relName], prop)
	}
	return med, nil
}

func parseSchema(relName, spec string) (relation.Schema, error) {
	var cols []relation.Column
	for _, field := range strings.Split(spec, ",") {
		name, typ, ok := strings.Cut(strings.TrimSpace(field), ":")
		if !ok {
			return relation.Schema{}, fmt.Errorf("schema field %q: want col:TYPE", field)
		}
		kind, err := relation.ParseKind(typ)
		if err != nil {
			return relation.Schema{}, err
		}
		cols = append(cols, relation.Column{Name: name, Kind: kind})
	}
	return relation.NewSchema(relName, cols...)
}
