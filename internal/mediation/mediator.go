package mediation

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"

	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// Dialer opens a fresh link to a datasource for one session. Calling a
// Dialer crosses a party boundary: whatever runs behind it (the
// source's Serve loop) executes at the source, not at the mediator, so
// the taint analysis correctly stops at the call.
//
// seclint:boundary source
type Dialer func() (transport.Conn, error)

// Mediator is the untrusted middle party of Figure 2: it localizes
// datasources, decomposes global queries, forwards credential subsets, and
// runs the mediator side of each delivery-phase protocol — over
// ciphertexts only.
type Mediator struct {
	// Schemas is the mediator's homogeneous global schema (the paper's
	// "embedding"): relation name → schema.
	Schemas map[string]relation.Schema
	// Routes localizes relations: relation name → dialer to the owning
	// source.
	Routes map[string]Dialer
	// CredHints optionally names, per relation, the credential property
	// names the owning source's policy needs; the mediator forwards only
	// matching credentials (Listing 1, step 2: "selects appropriate
	// subsets CR_i"). Relations without hints receive the full set.
	CredHints map[string][]string
	// Ledger optionally records leakage, primitive usage and traffic.
	Ledger *leakage.Ledger
	// Telemetry optionally records phase spans and traffic metrics for
	// this party.
	Telemetry *telemetry.Registry
}

// HandleSession serves one client session end-to-end. It is the
// combination of the request phase (Listing 1) and the mediator role of
// the selected delivery phase (Listings 2–4). Everything reachable from
// here runs at the untrusted mediator and is held to the
// ciphertext-only invariant by the plaintaint/keyscope analyzers.
//
// seclint:entry mediator
func (m *Mediator) HandleSession(client transport.Conn) error {
	err := m.handleSession(client)
	if err != nil {
		err = attribute(leakage.PartyMediator, "", err)
		countTimeout(m.Telemetry, leakage.PartyMediator, err)
		sendError(client, leakage.PartyMediator, err)
	}
	return err
}

func (m *Mediator) handleSession(client transport.Conn) error {
	var req Request
	if err := recvInto(client, "client", msgRequest, &req); err != nil {
		return err
	}
	req.Params = req.Params.withDefaults()
	// Arm the client link with the request's per-operation deadline; the
	// source links are armed right after dialing.
	if req.Params.Timeout > 0 {
		client.SetTimeout(req.Params.Timeout)
	}

	// Aggregation and union queries take their own paths (aggproto.go,
	// unionproto.go).
	if q, err := sqlparse.Parse(req.SQL); err == nil {
		if q.Aggregate != nil {
			return m.handleAggregate(client, &req, q)
		}
		if q.UnionWith != "" {
			return m.handleUnion(client, &req, q)
		}
	}

	root := m.Telemetry.Tracer(leakage.PartyMediator).Start("session")
	root.Annotate("protocol", req.Protocol.String())
	annotateSession(root, client)
	defer root.End()

	// Listing 1, steps 2–3 are the querying phase: decompose, localize,
	// ship partial queries, collect authorization acks. The span is ended
	// exactly once — at the phase boundary, or at whatever earlier point
	// an error aborts the session.
	querying := root.Start(telemetry.PhaseQuerying)
	queryingEnded := false
	endQuerying := func() {
		if !queryingEnded {
			queryingEnded = true
			querying.End()
		}
	}
	defer endQuerying()

	// Listing 1, step 2: decompose and localize.
	d, err := decompose(req.SQL, m.Schemas)
	if err != nil {
		return err
	}
	dial1, ok := m.Routes[d.rel1]
	if !ok {
		return fmt.Errorf("mediation: no source for relation %q", d.rel1)
	}
	dial2, ok := m.Routes[d.rel2]
	if !ok {
		return fmt.Errorf("mediation: no source for relation %q", d.rel2)
	}
	conn1, err := dial1()
	if err != nil {
		return &ProtocolError{Party: "source:" + d.rel1, Err: fmt.Errorf("dialing: %w", err)}
	}
	defer conn1.Close()
	conn2, err := dial2()
	if err != nil {
		return &ProtocolError{Party: "source:" + d.rel2, Err: fmt.Errorf("dialing: %w", err)}
	}
	defer conn2.Close()
	if req.Params.Timeout > 0 {
		conn1.SetTimeout(req.Params.Timeout)
		conn2.SetTimeout(req.Params.Timeout)
	}

	session, err := newSessionID()
	if err != nil {
		return err
	}

	// Listing 1, step 3: partial queries with credential subsets and join
	// attribute sets.
	pq1 := PartialQuery{
		SessionID: session, Query: d.partialSQL(d.rel1), Relation: d.rel1,
		JoinCols: d.joinCols1, Credentials: m.selectCredentials(d.rel1, req.Credentials),
		Protocol: req.Protocol, Params: req.Params, HomomorphicKey: req.HomomorphicKey, PMKey: req.PMKey,
	}
	pq2 := PartialQuery{
		SessionID: session, Query: d.partialSQL(d.rel2), Relation: d.rel2,
		JoinCols: d.joinCols2, Credentials: m.selectCredentials(d.rel2, req.Credentials),
		Protocol: req.Protocol, Params: req.Params, HomomorphicKey: req.HomomorphicKey, PMKey: req.PMKey,
	}
	if req.Protocol == ProtocolDAS && req.Params.Pushdown {
		// Selection-pushdown extension: ask the sources to index the
		// pushable WHERE columns as well.
		pq1.FilterCols = filterColumns(extractPushdown(d.query.Where, m.Schemas[d.rel1]), d.joinCols1)
		pq2.FilterCols = filterColumns(extractPushdown(d.query.Where, m.Schemas[d.rel2]), d.joinCols2)
	}
	if err := sendMsg(conn1, "source:"+d.rel1, msgPartialQuery, pq1); err != nil {
		abortLinks(err, conn2)
		return err
	}
	if err := sendMsg(conn2, "source:"+d.rel2, msgPartialQuery, pq2); err != nil {
		abortLinks(err, conn1)
		return err
	}
	var ack1, ack2 PartialAck
	if err := recvInto(conn1, "source:"+d.rel1, msgPartialAck, &ack1); err != nil {
		abortLinks(err, conn2)
		return err
	}
	if err := recvInto(conn2, "source:"+d.rel2, msgPartialAck, &ack2); err != nil {
		abortLinks(err, conn1)
		return err
	}
	if !ack1.Granted {
		return fmt.Errorf("mediation: access to %s denied: %s", d.rel1, ack1.Reason)
	}
	if !ack2.Granted {
		return fmt.Errorf("mediation: access to %s denied: %s", d.rel2, ack2.Reason)
	}
	d.schema1, d.schema2 = ack1.Schema, ack2.Schema
	endQuerying()

	watch := newStopwatch(m.Ledger, leakage.PartyMediator)
	watch.attach(root)
	switch req.Protocol {
	case ProtocolPlaintext:
		err = m.mediatePlaintext(client, conn1, conn2, d, watch)
	case ProtocolMobileCode:
		err = m.mediateMobileCode(client, conn1, conn2, d)
	case ProtocolDAS:
		err = m.mediateDAS(client, conn1, conn2, d, watch)
	case ProtocolCommutative:
		err = m.mediateCommutative(client, conn1, conn2, d, req.Params, watch)
	case ProtocolPM:
		err = m.mediatePM(client, conn1, conn2, d, watch)
	default:
		err = fmt.Errorf("mediation: unknown protocol %d", req.Protocol)
	}
	if err != nil {
		// Unblock sources that may still be waiting mid-protocol.
		abortLinks(err, conn1, conn2)
		return err
	}
	m.recordTraffic(client, conn1, conn2)
	trafficGauges(m.Telemetry, leakage.PartyMediator, "client", client.Stats())
	trafficGauges(m.Telemetry, leakage.PartyMediator, "source:"+d.rel1, conn1.Stats())
	trafficGauges(m.Telemetry, leakage.PartyMediator, "source:"+d.rel2, conn2.Stats())
	return nil
}

// selectCredentials picks CR_i for a relation per the configured hints.
func (m *Mediator) selectCredentials(rel string, all credential.Set) credential.Set {
	hints, ok := m.CredHints[rel]
	if !ok || len(hints) == 0 {
		return all
	}
	seen := map[*credential.Credential]bool{}
	var out credential.Set
	for _, h := range hints {
		for _, c := range all.WithProperty(h) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

func (m *Mediator) recordTraffic(client, s1, s2 transport.Conn) {
	if m.Ledger == nil {
		return
	}
	m.Ledger.Observe(leakage.PartyMediator, "bytes-to-client", client.Stats().BytesSent())
	m.Ledger.Observe(leakage.PartyMediator, "bytes-from-client", client.Stats().BytesRecv())
	m.Ledger.Observe(leakage.PartyMediator, "bytes-to-sources", s1.Stats().BytesSent()+s2.Stats().BytesSent())
	m.Ledger.Observe(leakage.PartyMediator, "bytes-from-sources", s1.Stats().BytesRecv()+s2.Stats().BytesRecv())
	m.Ledger.Observe(leakage.PartyMediator, "msgs-with-client", client.Stats().MsgsSent()+client.Stats().MsgsRecv())
	m.Ledger.Observe(leakage.PartyMediator, "msgs-with-sources",
		s1.Stats().MsgsSent()+s1.Stats().MsgsRecv()+s2.Stats().MsgsSent()+s2.Stats().MsgsRecv())
}

func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("mediation: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
