package mediation

import (
	"crypto/ecdh"
	"crypto/rsa"
	"fmt"
	"sync"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/leakage"
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
	// Ledger optionally records leakage and primitive usage.
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
	var pq PartialQuery
	if err := recvInto(conn, "mediator", msgPartialQuery, &pq); err != nil {
		return fmt.Errorf("mediation: source %s: %w", s.Name, err)
	}
	// Arm the mediator link with the query's per-operation deadline so a
	// dead mediator cannot park this session forever.
	if pq.Params.Timeout > 0 {
		conn.SetTimeout(pq.Params.Timeout)
	}
	if !s.admitAttempt(pq.Params.QueryID, pq.Params.Attempt) {
		// A later attempt of this query already reached us: this one was
		// abandoned by the client. Denying (a protocol outcome, like an
		// access denial) discards the stale partial state cleanly.
		reason := fmt.Sprintf("stale attempt %d of query %s", pq.Params.Attempt, pq.Params.QueryID)
		return sendMsg(conn, "mediator", msgPartialAck, PartialAck{Granted: false, Reason: reason})
	}
	rel, queryKey, denyReason, err := s.executePartial(&pq)
	if err != nil {
		return s.abort(conn, err)
	}
	if denyReason != "" {
		return sendMsg(conn, "mediator", msgPartialAck, PartialAck{Granted: false, Reason: denyReason})
	}
	if err := sendMsg(conn, "mediator", msgPartialAck, PartialAck{Granted: true, Schema: rel.Schema()}); err != nil {
		return err
	}
	root := s.Telemetry.Tracer(s.party()).Start("session")
	root.Annotate("protocol", pq.Protocol.String())
	root.Annotate("relation", pq.Relation)
	annotateSession(root, conn)
	defer root.End()
	defer trafficGauges(s.Telemetry, s.party(), "mediator", conn.Stats())
	watch := newStopwatch(s.Ledger, s.party())
	watch.attach(root)
	switch {
	case pq.Aggregate != nil:
		err = s.serveAggregate(conn, &pq, rel, watch)
	case pq.Protocol == ProtocolPlaintext:
		err = s.servePlaintext(conn, rel)
	case pq.Protocol == ProtocolMobileCode:
		err = s.serveMobileCode(conn, &pq, rel, queryKey, watch)
	case pq.Protocol == ProtocolDAS:
		err = s.serveDAS(conn, &pq, rel, queryKey, watch)
	case pq.Protocol == ProtocolCommutative:
		err = s.serveCommutative(conn, &pq, rel, queryKey, watch)
	case pq.Protocol == ProtocolPM:
		err = s.servePM(conn, &pq, rel, watch)
	default:
		err = fmt.Errorf("unknown protocol %d", pq.Protocol)
	}
	if err != nil {
		return s.abort(conn, err)
	}
	return nil
}

// abort reports err to the mediator (attributed to this source unless the
// chain already carries an origin) and returns the wrapped session error.
func (s *Source) abort(conn transport.Conn, err error) error {
	err = attribute(s.party(), "", err)
	countTimeout(s.Telemetry, s.party(), err)
	sendError(conn, s.party(), err)
	return fmt.Errorf("mediation: source %s: %w", s.Name, err)
}

// executePartial runs Listing 1 step 4: credential check, the query-key
// binding check, then execution of q_i against the catalog, with the
// policy's row filter applied. It returns the parsed query key (nil for a
// plaintext join). The returned denyReason is non-empty when access is
// denied (not an error).
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
		return nil, nil, "", err
	}
	out, err = decision.ApplyFilter(out)
	if err != nil {
		return nil, nil, "", err
	}
	// Validate the join attributes exist before entering the delivery
	// phase. The protocols that encrypt A_i need at least one; the
	// baselines ship whole tuples (a union's partial query has none), and
	// aggregation reads none.
	for _, c := range pq.JoinCols {
		if out.Schema().IndexOf(c) < 0 {
			return nil, nil, "", fmt.Errorf("relation %s has no join column %q", pq.Relation, c)
		}
	}
	secure := pq.Protocol == ProtocolDAS || pq.Protocol == ProtocolCommutative || pq.Protocol == ProtocolPM
	if len(pq.JoinCols) == 0 && pq.Aggregate == nil && secure {
		return nil, nil, "", fmt.Errorf("empty join attribute set")
	}
	return out, queryKey, "", nil
}

// servePlaintext ships the partial result in the clear (trusted-mediator
// baseline).
func (s *Source) servePlaintext(conn transport.Conn, rel *relation.Relation) error {
	return sendMsg(conn, "mediator", msgPTPartial, toWire(rel))
}
