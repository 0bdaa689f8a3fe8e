package mediation

import (
	"crypto/ecdh"
	"crypto/rsa"
	"fmt"
	"math"
	"math/big"
	"sync"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation/link"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// Source is a datasource party: it owns relations, enforces credential-
// based access control, and executes its side of the delivery-phase
// protocols.
type Source struct {
	// Name identifies the source (S1, S2, ... in the paper).
	Name string
	// Catalog holds the source's relations.
	Catalog algebra.MapCatalog
	// Policies maps relation names to access policies. A relation without
	// a policy is not served (deny by default).
	Policies map[string]*credential.Policy
	// TrustedCAs are the certification-authority keys this source accepts.
	TrustedCAs []*rsa.PublicKey
	// Ledger optionally records what this party learns and the
	// primitives it applies (Tables 1 and 2).
	Ledger *leakage.Ledger
	// Telemetry optionally records phase spans and traffic metrics for
	// this party.
	Telemetry *telemetry.Registry
	// Now is an injectable clock for credential validation (defaults to
	// time.Now).
	Now func() time.Time

	// attempts tracks the highest attempt number served per query ID, so
	// a retried query's abandoned earlier attempt — still limping along
	// on a half-dead link, or replayed by a duplicating wire — is denied
	// instead of racing the live one. Bounded FIFO (attemptCap entries).
	attemptMu    sync.Mutex
	attempts     map[string]int
	attemptOrder []string
}

// attemptCap bounds the stale-attempt registry; old query IDs are
// evicted FIFO. At one entry per in-flight-or-recent logical query this
// comfortably covers the retry window without growing unbounded over a
// long-lived process.
const attemptCap = 1024

// admitAttempt registers one (queryID, attempt) arrival and reports
// whether it is current. An empty queryID (client not using the retry
// orchestrator) is always admitted; a repeat of the same attempt is
// admitted (the registry tracks abandonment, not duplication); an
// attempt lower than one already seen is stale — the client has moved
// on — and is denied.
func (s *Source) admitAttempt(queryID string, attempt int) bool {
	if queryID == "" {
		return true
	}
	s.attemptMu.Lock()
	defer s.attemptMu.Unlock()
	last, seen := s.attempts[queryID]
	if seen && attempt < last {
		if s.Telemetry.Enabled() {
			s.Telemetry.Counter("stale_attempts_discarded").Add(1)
		}
		return false
	}
	if !seen {
		if s.attempts == nil {
			s.attempts = make(map[string]int)
		}
		if len(s.attemptOrder) >= attemptCap {
			evict := s.attemptOrder[0]
			s.attemptOrder = s.attemptOrder[1:]
			delete(s.attempts, evict)
		}
		s.attemptOrder = append(s.attemptOrder, queryID)
	}
	if attempt > last {
		s.attempts[queryID] = attempt
	}
	return true
}

func (s *Source) party() string { return leakage.PartySource(s.Name) }

func (s *Source) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// Serve handles one mediation session over the link to the mediator:
// authorization (Listing 1, step 4) followed by the protocol-specific
// delivery phase. It returns nil when the session ends normally, including
// the access-denied case (which is a protocol outcome, not a server
// failure).
func (s *Source) Serve(conn transport.Conn) error {
	mediator := link.New(conn, leakage.PartyMediator)
	// The session span, once started, ends last: whoever waits for it
	// finds the traffic counters too. The traffic counts on every exit
	// from here on, a denied or rejected request included.
	var root *telemetry.Span
	defer func() { root.End() }()
	defer trafficCounters(s.Telemetry, s.party(), mediator.Peer(), conn.Stats())
	// fail reports err to the mediator and returns the session error. An
	// error that names no party is a check or a phase failing on what the
	// mediator sent: it names the mediator.
	watch := &stopwatch{party: s.party(), peer: mediator.Peer()}
	fail := func(err error) error {
		return fmt.Errorf("mediation: source %s: %w", s.Name, abort(mediator, s.Telemetry, s.party(), watch.blame("", err)))
	}
	var pq PartialQuery
	if err := mediator.Recv(msgPartialQuery, &pq); err != nil {
		return fmt.Errorf("mediation: source %s: %w", s.Name, err)
	}
	// The mediator may have rewritten what the client asked for.
	if err := pq.Params.check(); err != nil {
		return fail(err)
	}
	// Arm the mediator link with the query's per-operation deadline so a
	// dead mediator cannot park this session forever.
	if pq.Params.Timeout > 0 {
		mediator.SetTimeout(pq.Params.Timeout)
	}
	if !s.admitAttempt(pq.Params.QueryID, pq.Params.Attempt) {
		// A later attempt of this query already reached us: this one was
		// abandoned by the client. Denying (a protocol outcome, like an
		// access denial) discards the stale partial state cleanly.
		reason := fmt.Sprintf("stale attempt %d of query %s", pq.Params.Attempt, pq.Params.QueryID)
		return mediator.Send(msgPartialAck, PartialAck{Granted: false, Reason: reason})
	}
	rel, queryKey, denyReason, err := s.executePartial(&pq)
	if err != nil {
		return fail(err)
	}
	if denyReason != "" {
		return mediator.Send(msgPartialAck, PartialAck{Granted: false, Reason: denyReason})
	}
	if err := mediator.Send(msgPartialAck, PartialAck{Granted: true, Schema: rel.Schema()}); err != nil {
		return err
	}
	root = s.Telemetry.Tracer(s.party()).Start("session")
	root.Annotate("protocol", pq.Protocol.String())
	root.Annotate("relation", pq.Relation)
	annotateSession(root, mediator)
	watch.root = root
	switch {
	case pq.Protocol == ProtocolPlaintext:
		err = s.servePlaintext(mediator, rel)
	case pq.Protocol == ProtocolMobileCode:
		err = s.serveMobileCode(mediator, &pq, rel, queryKey, watch)
	case pq.Protocol == ProtocolDAS:
		err = s.serveDAS(mediator, &pq, rel, queryKey, watch)
	case pq.Protocol == ProtocolCommutative:
		err = s.serveCommutative(mediator, &pq, rel, queryKey, watch)
	case pq.Protocol == ProtocolPM:
		err = s.servePM(mediator, &pq, rel, queryKey, watch)
	default:
		err = fmt.Errorf("unknown protocol %d", pq.Protocol)
	}
	if err != nil {
		return fail(err)
	}
	return nil
}

// executePartial runs Listing 1 step 4: credential check, the query-key
// binding check, then execution of q_i against the catalog, with the
// policy's row filter applied, and for an aggregate the fold into its one
// result row. It returns the query's key, derived from the verified
// root, which every delivery protocol uses (nil for a plaintext join).
// The returned denyReason is non-empty when access is denied (not an
// error). An error evaluating q_i is the source's own; any other error
// rejects what the mediator sent.
func (s *Source) executePartial(pq *PartialQuery) (*relation.Relation, *ecdh.PublicKey, string, error) {
	pol, ok := s.Policies[pq.Relation]
	if !ok {
		return nil, nil, fmt.Sprintf("source %s serves no relation %q", s.Name, pq.Relation), nil
	}
	decision := pol.Check(pq.Credentials, s.TrustedCAs, s.now())
	if !decision.Granted {
		return nil, nil, decision.Reason, nil
	}
	queryKey, reason := verifyQueryKey(pq, decision.ClientKey)
	if reason != "" {
		return nil, nil, reason, nil
	}
	q, err := sqlparse.Parse(pq.Query)
	if err != nil {
		return nil, nil, "", fmt.Errorf("bad partial query: %w", err)
	}
	if q.Right != "" || q.Left != pq.Relation {
		return nil, nil, "", fmt.Errorf("partial query %q does not match relation %q", pq.Query, pq.Relation)
	}
	out, err := q.Tree().Eval(s.Catalog)
	if err != nil {
		return nil, nil, "", attribute(s.party(), "", err)
	}
	out, err = decision.ApplyFilter(out)
	if err != nil {
		return nil, nil, "", attribute(s.party(), "", err)
	}
	// Validate the join attributes exist before entering the delivery
	// phase. The protocols that encrypt A_i need at least one; the
	// baselines ship whole tuples (the partial query of a union or an
	// aggregate has none).
	for _, c := range pq.JoinCols {
		if out.Schema().IndexOf(c) < 0 {
			return nil, nil, "", fmt.Errorf("relation %s has no join column %q", pq.Relation, c)
		}
	}
	secure := pq.Protocol == ProtocolDAS || pq.Protocol == ProtocolCommutative || pq.Protocol == ProtocolPM
	if len(pq.JoinCols) == 0 && secure {
		return nil, nil, "", fmt.Errorf("empty join attribute set")
	}
	if pq.Aggregate != nil {
		if out, err = aggregate(out, pq.Aggregate); err != nil {
			return nil, nil, "", attribute(s.party(), "", err)
		}
	}
	return out, queryKey, "", nil
}

// aggScale is the fixed-point scale of FLOAT aggregation.
const aggScale = 1_000_000

// aggregate folds a filtered partial result into the one-row result of
// spec — the aggregation extension, after the aggregation over encrypted
// data that the paper's Section 7 surveys ([14],[9]). The source owns
// every value, so it adds them itself and ships one sealed row; the
// mediator never sees a per-row ciphertext. SUM and AVG add in fixed
// point, exactly: they fail if and only if the true sum leaves int64.
func aggregate(rel *relation.Relation, spec *sqlparse.AggregateSpec) (*relation.Relation, error) {
	ci := rel.Schema().IndexOf(spec.Column)
	if ci < 0 && (spec.Func != "COUNT" || spec.Column != "*") {
		return nil, fmt.Errorf("agg: relation %s has no column %q", rel.Schema().Relation, spec.Column)
	}
	var v relation.Value
	switch spec.Func {
	case "COUNT":
		v = relation.Int(int64(rel.Len()))
	case "SUM", "AVG":
		kind := rel.Schema().Columns[ci].Kind
		if kind != relation.KindInt && kind != relation.KindFloat {
			return nil, fmt.Errorf("agg: cannot aggregate %v column %q", kind, spec.Column)
		}
		var sum, x big.Int
		for _, t := range rel.Tuples() {
			fp, err := fixedPoint(t[ci])
			if err != nil {
				return nil, err
			}
			sum.Add(&sum, x.SetInt64(fp))
		}
		if !sum.IsInt64() {
			return nil, fmt.Errorf("agg: aggregate sum overflows int64")
		}
		switch {
		case spec.Func == "AVG":
			if rel.Len() == 0 {
				return nil, fmt.Errorf("agg: AVG over an empty relation")
			}
			f := float64(sum.Int64()) / float64(rel.Len())
			if kind == relation.KindFloat {
				f /= aggScale
			}
			v = relation.Float(f)
		case kind == relation.KindFloat:
			v = relation.Float(float64(sum.Int64()) / aggScale)
		default:
			v = relation.Int(sum.Int64())
		}
	default:
		return nil, fmt.Errorf("agg: unsupported aggregate %q", spec.Func)
	}
	schema, err := relation.NewSchema("", relation.Column{Name: aggregateColumn(spec), Kind: v.Kind()})
	if err != nil {
		return nil, err
	}
	return relation.FromTuples(schema, relation.Tuple{v})
}

// fixedPoint encodes an INT or FLOAT value as a scaled integer.
func fixedPoint(v relation.Value) (int64, error) {
	switch v.Kind() {
	case relation.KindInt:
		return v.AsInt(), nil
	case relation.KindFloat:
		f := v.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Errorf("agg: cannot aggregate %v", f)
		}
		scaled := math.Round(f * aggScale)
		if scaled > math.MaxInt64/2 || scaled < math.MinInt64/2 {
			return 0, fmt.Errorf("agg: value %v overflows the fixed-point range", f)
		}
		return int64(scaled), nil
	default:
		return 0, fmt.Errorf("agg: unsupported kind %v", v.Kind())
	}
}

// servePlaintext ships the partial result in the clear (trusted-mediator
// baseline).
func (s *Source) servePlaintext(mediator *link.Link, rel *relation.Relation) error {
	return mediator.Send(msgPTPartial, toWire(rel))
}
