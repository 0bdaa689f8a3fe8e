package mediation

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"

	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/relation"
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
// the selected delivery phase (Listings 2–4, a baseline, or the
// aggregation extension). Everything reachable from
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

	root := m.Telemetry.Tracer(leakage.PartyMediator).Start("session")
	root.Annotate("protocol", req.Protocol.String())
	annotateSession(root, client)
	defer root.End()

	// Listing 1, steps 2–4 are the querying phase, the same for every
	// query shape.
	querying := root.Start(telemetry.PhaseQuerying)
	d, conns, err := m.requestPhase(&req)
	querying.End()
	for _, c := range conns {
		defer c.Close()
	}
	if err != nil {
		return err
	}

	watch := newStopwatch(m.Ledger, leakage.PartyMediator)
	watch.attach(root)
	switch {
	case d.query.Aggregate != nil:
		err = m.mediateAggregate(client, conns[0], &req, d, watch)
	case d.protocol == ProtocolPlaintext:
		err = m.mediatePlaintext(client, conns[0], conns[1], d, watch)
	case d.protocol == ProtocolMobileCode:
		err = m.mediateMobileCode(client, conns[0], conns[1], d)
	case d.protocol == ProtocolDAS:
		err = m.mediateDAS(client, conns[0], conns[1], d, watch)
	case d.protocol == ProtocolCommutative:
		err = m.mediateCommutative(client, conns[0], conns[1], d, req.Params, watch)
	case d.protocol == ProtocolPM:
		err = m.mediatePM(client, conns[0], conns[1], d, watch)
	default:
		err = fmt.Errorf("mediation: unknown protocol %d", req.Protocol)
	}
	if err != nil {
		// Unblock sources that may still be waiting mid-protocol.
		abortLinks(err, conns...)
		return err
	}
	m.recordTraffic(client, d, conns)
	return nil
}

// requestPhase runs Listing 1, steps 2–4, for a join, a union and an
// aggregate alike: decompose the global query, localize and dial the
// source of each relation it reads, ship each partial query q_i with its
// credential subset CR_i and join attribute set A_i, and collect the
// authorization answers. It returns one live link per relation of d, in
// d.relations() order, with the authorized schemas recorded in d. The
// caller closes the links it returns, on error too.
func (m *Mediator) requestPhase(req *Request) (*decomposition, []transport.Conn, error) {
	d, err := decompose(req.SQL, m.Schemas)
	if err != nil {
		return nil, nil, err
	}
	d.protocol = delivery(d.query, req.Protocol)
	if d.query.Aggregate != nil && req.HomomorphicKey == nil {
		return nil, nil, fmt.Errorf("mediation: aggregate request carries no homomorphic key")
	}
	rels := d.relations()
	dials := make([]Dialer, len(rels))
	for i, rel := range rels {
		dial, ok := m.Routes[rel]
		if !ok {
			return nil, nil, fmt.Errorf("mediation: no source for relation %q", rel)
		}
		dials[i] = dial
	}
	var conns []transport.Conn
	for i, dial := range dials {
		conn, err := dial()
		if err != nil {
			return nil, conns, &ProtocolError{Party: "source:" + rels[i], Err: fmt.Errorf("dialing: %w", err)}
		}
		if req.Params.Timeout > 0 {
			conn.SetTimeout(req.Params.Timeout)
		}
		conns = append(conns, conn)
	}
	session, err := newSessionID()
	if err != nil {
		return nil, conns, err
	}
	for i, rel := range rels {
		pq := PartialQuery{
			SessionID: session, Query: d.partial1, Relation: rel, JoinCols: d.joinCols1,
			Credentials: m.selectCredentials(rel, req.Credentials),
			Protocol:    d.protocol, Params: req.Params, Aggregate: d.query.Aggregate,
			HomomorphicKey: req.HomomorphicKey, PMKey: req.PMKey,
		}
		if i == 1 {
			pq.Query, pq.JoinCols = d.partial2, d.joinCols2
		}
		if d.protocol == ProtocolDAS && req.Params.Pushdown {
			// Selection-pushdown extension: ask the sources to index the
			// pushable WHERE columns as well.
			pq.FilterCols = filterColumns(extractPushdown(d.query.Where, m.Schemas[rel]), pq.JoinCols)
		}
		if err := sendMsg(conns[i], "source:"+rel, msgPartialQuery, pq); err != nil {
			abortLinks(err, without(conns, i)...)
			return nil, conns, err
		}
	}
	acks := make([]PartialAck, len(rels))
	for i, rel := range rels {
		if err := recvInto(conns[i], "source:"+rel, msgPartialAck, &acks[i]); err != nil {
			abortLinks(err, without(conns, i)...)
			return nil, conns, err
		}
	}
	for i, rel := range rels {
		if !acks[i].Granted {
			err := fmt.Errorf("mediation: access to %s denied: %s", rel, acks[i].Reason)
			abortLinks(err, conns...)
			return nil, conns, err
		}
	}
	d.schema1 = acks[0].Schema
	if len(acks) == 2 {
		d.schema2 = acks[1].Schema
	}
	return d, conns, nil
}

// without returns conns minus the link at i: the live links to abort
// after link i failed.
func without(conns []transport.Conn, i int) []transport.Conn {
	out := append([]transport.Conn(nil), conns[:i]...)
	return append(out, conns[i+1:]...)
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

// recordTraffic exports the session's link counters: telemetry gauges
// per link, and ledger totals with the client and over all source links.
func (m *Mediator) recordTraffic(client transport.Conn, d *decomposition, sources []transport.Conn) {
	trafficGauges(m.Telemetry, leakage.PartyMediator, "client", client.Stats())
	var toSources, fromSources, msgsWithSources int64
	for i, rel := range d.relations() {
		st := sources[i].Stats()
		trafficGauges(m.Telemetry, leakage.PartyMediator, "source:"+rel, st)
		toSources += st.BytesSent()
		fromSources += st.BytesRecv()
		msgsWithSources += st.MsgsSent() + st.MsgsRecv()
	}
	if m.Ledger == nil {
		return
	}
	m.Ledger.Observe(leakage.PartyMediator, "bytes-to-client", client.Stats().BytesSent())
	m.Ledger.Observe(leakage.PartyMediator, "bytes-from-client", client.Stats().BytesRecv())
	m.Ledger.Observe(leakage.PartyMediator, "bytes-to-sources", toSources)
	m.Ledger.Observe(leakage.PartyMediator, "bytes-from-sources", fromSources)
	m.Ledger.Observe(leakage.PartyMediator, "msgs-with-client", client.Stats().MsgsSent()+client.Stats().MsgsRecv())
	m.Ledger.Observe(leakage.PartyMediator, "msgs-with-sources", msgsWithSources)
}

func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("mediation: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
