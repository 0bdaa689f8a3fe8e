package mediation

import (
	"fmt"
	"strings"
	"sync"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// Network wires a client, a mediator and a set of sources into one
// process, connected by in-memory links. Each Query spawns the mediator
// session and the source handlers as goroutines, exactly mirroring the
// distributed message flow (the TCP deployment in cmd/ uses the same
// party code over transport.Dial).
type Network struct {
	Client   *Client
	Mediator *Mediator
	Sources  []*Source

	mu         sync.Mutex
	sourceErrs []error
}

// NewNetwork builds a network. The mediator's Routes and (if unset)
// Schemas are derived from the sources' catalogs: each catalog relation is
// routed to a dialer that spawns a fresh Serve goroutine per session.
func NewNetwork(client *Client, mediator *Mediator, sources ...*Source) (*Network, error) {
	n := &Network{Client: client, Mediator: mediator, Sources: sources}
	if mediator.Routes == nil {
		mediator.Routes = make(map[string]Dialer)
	}
	if mediator.Schemas == nil {
		mediator.Schemas = make(map[string]relation.Schema)
	}
	for _, src := range sources {
		src := src
		for name, rel := range src.Catalog {
			if _, dup := mediator.Routes[name]; dup {
				return nil, fmt.Errorf("mediation: relation %q served by two sources", name)
			}
			mediator.Routes[name] = func() (transport.Conn, error) {
				a, b := transport.Pair()
				go func() {
					err := src.Serve(b)
					if cerr := b.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						n.mu.Lock()
						n.sourceErrs = append(n.sourceErrs, err)
						n.mu.Unlock()
					}
				}()
				return a, nil
			}
			if _, ok := mediator.Schemas[name]; !ok {
				mediator.Schemas[name] = rel.Schema()
			}
		}
	}
	return n, nil
}

// Query runs one global query through the in-memory network. Chained-join
// queries ("A JOIN B ... JOIN C ...") execute as successive two-party
// joins via materialized delegate views (paper §8).
func (n *Network) Query(sql string, proto Protocol, params Params) (*relation.Relation, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if len(q.MoreJoins) > 0 && q.Aggregate == nil {
		return n.queryChain(q, proto, params)
	}
	return n.runSession(sql, proto, params)
}

// runSession executes one client/mediator session.
func (n *Network) runSession(sql string, proto Protocol, params Params) (*relation.Relation, error) {
	return n.session(func(conn transport.Conn) (*relation.Relation, error) {
		return n.Client.Query(conn, sql, proto, params)
	})
}

// session runs the client side over a fresh link to a mediator session.
func (n *Network) session(client func(transport.Conn) (*relation.Relation, error)) (*relation.Relation, error) {
	clientSide, mediatorSide := transport.Pair()
	done := make(chan error, 1)
	go func() {
		done <- closeJoin(mediatorSide, n.Mediator.HandleSession(mediatorSide))
	}()
	res, err := client(clientSide)
	err = closeJoin(clientSide, err)
	medErr := <-done
	if err != nil {
		return nil, err
	}
	if medErr != nil {
		return nil, fmt.Errorf("mediation: mediator failed after client success: %w", medErr)
	}
	return res, nil
}

// closeJoin closes c and folds the close error into the protocol
// result: a failed Close after a successful protocol run can mean lost
// frames on a real transport and must not vanish silently.
func closeJoin(c transport.Conn, err error) error {
	cerr := c.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("mediation: closing session connection: %w", cerr)
	}
	return nil
}

// SetTelemetry points every party of the network at one registry, so a
// run produces a single cross-party span tree (registries are process-
// local and never cross transport links; in-process all parties can
// share one). Pass nil to disable.
func (n *Network) SetTelemetry(reg *telemetry.Registry) {
	n.Client.Telemetry = reg
	n.Mediator.Telemetry = reg
	for _, src := range n.Sources {
		src.Telemetry = reg
	}
}

// SourceErrors drains errors raised by source handler goroutines; useful
// in tests asserting clean protocol shutdown.
func (n *Network) SourceErrors() []error {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.sourceErrs
	n.sourceErrs = nil
	return out
}

// MaterializeView prepares a query result for re-registration as a
// relation at a (delegate) source — the mediator-hierarchy scenario where
// one mediator acts as a datasource for another (paper Section 8). Column
// names are sanitized ("R1.id" → "R1_id") so the view is queryable.
func MaterializeView(r *relation.Relation, name string) (*relation.Relation, error) {
	cols := make([]relation.Column, len(r.Schema().Columns))
	for i, c := range r.Schema().Columns {
		cols[i] = relation.Column{Name: strings.ReplaceAll(c.Name, ".", "_"), Kind: c.Kind}
	}
	schema, err := relation.NewSchema(name, cols...)
	if err != nil {
		return nil, err
	}
	return relation.FromTuples(schema, r.Tuples()...)
}

// Intersect runs Client.Intersect through the in-memory network.
func (n *Network) Intersect(rel1, rel2 string, params Params) (*relation.Relation, error) {
	return n.session(func(conn transport.Conn) (*relation.Relation, error) {
		return n.Client.Intersect(conn, rel1, rel2, params)
	})
}

// queryChain executes a chained-join query ("A JOIN B ... JOIN C ...") as
// successive two-party joins — the paper's Section 8 scenario, automated:
// each intermediate result is materialized as a view at a delegate source
// (the lower mediator acting as a datasource) and joined with the next
// relation through a fresh mediation session. The original query's WHERE,
// projection and DISTINCT apply to the final join, client-side.
func (n *Network) queryChain(q *sqlparse.Query, proto Protocol, params Params) (*relation.Relation, error) {
	firstQ := &sqlparse.Query{Left: q.Left, Right: q.Right, Natural: q.Natural,
		JoinLeft: q.JoinLeft, JoinRight: q.JoinRight}
	cur, err := n.runSession(firstQ.String(), proto, params)
	if err != nil {
		return nil, err
	}
	for i, step := range q.MoreJoins {
		viewName := fmt.Sprintf("__view_%d", i+1)
		if _, clash := n.Mediator.Schemas[viewName]; clash {
			return nil, fmt.Errorf("mediation: view name %s collides with a real relation", viewName)
		}
		view, err := relation.FromTuples(cur.Schema().Rename(viewName), cur.Tuples()...)
		if err != nil {
			return nil, err
		}
		owner, err := n.sourceOf(step.Relation)
		if err != nil {
			return nil, err
		}
		delegate := &Source{
			Name:    "delegate:" + viewName,
			Catalog: algebra.MapCatalog{viewName: view},
			// The delegate holds the client's own intermediate result; any
			// verifiable credential of the querying client unlocks it.
			Policies:   map[string]*credential.Policy{viewName: {Relation: viewName}},
			TrustedCAs: owner.TrustedCAs,
			Ledger:     n.Mediator.Ledger,
		}
		sub, err := NewNetwork(n.Client, &Mediator{Ledger: n.Mediator.Ledger}, delegate, owner)
		if err != nil {
			return nil, err
		}
		stepSQL, err := chainStepSQL(viewName, view.Schema(), step)
		if err != nil {
			return nil, err
		}
		cur, err = sub.runSession(stepSQL, proto, params)
		if err != nil {
			return nil, err
		}
	}
	// Apply the original query's unary operations to the final join.
	if q.Where != nil {
		cur, err = algebra.Select(cur, q.Where)
		if err != nil {
			return nil, err
		}
	}
	if q.Columns != nil {
		cur, err = algebra.Project(cur, q.Columns...)
		if err != nil {
			return nil, err
		}
	}
	if q.Distinct {
		cur = algebra.Distinct(cur)
	}
	return cur, nil
}

// sourceOf finds the source serving a relation.
func (n *Network) sourceOf(rel string) (*Source, error) {
	for _, src := range n.Sources {
		if _, ok := src.Catalog[rel]; ok {
			return src, nil
		}
	}
	return nil, fmt.Errorf("mediation: no source serves relation %q", rel)
}

// chainStepSQL renders the two-relation SQL for one chain step, resolving
// which side of each ON pair lives in the accumulated view.
func chainStepSQL(viewName string, viewSchema relation.Schema, step sqlparse.JoinStep) (string, error) {
	if step.Natural {
		return "SELECT * FROM " + viewName + " NATURAL JOIN " + step.Relation, nil
	}
	var b strings.Builder
	b.WriteString("SELECT * FROM ")
	b.WriteString(viewName)
	b.WriteString(" JOIN ")
	b.WriteString(step.Relation)
	b.WriteString(" ON ")
	for i := range step.OnLeft {
		l, r := step.OnLeft[i], step.OnRight[i]
		if viewSchema.IndexOf(l) < 0 {
			if viewSchema.IndexOf(r) < 0 {
				return "", fmt.Errorf("mediation: join condition %s = %s references no view column", l, r)
			}
			l, r = r, l
		}
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(l)
		b.WriteString(" = ")
		b.WriteString(r)
	}
	return b.String(), nil
}
