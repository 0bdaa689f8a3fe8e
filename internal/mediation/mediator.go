package mediation

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"

	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation/link"
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
	// Ledger optionally records what this party learns and the
	// primitives it applies (Tables 1 and 2).
	Ledger *leakage.Ledger
	// Telemetry optionally records phase spans and traffic metrics for
	// this party.
	Telemetry *telemetry.Registry
}

// HandleSession serves one client session end-to-end. It is the
// combination of the request phase (Listing 1) and the mediator role of
// the selected delivery phase (Listings 2–4 or a baseline). Everything
// reachable from here runs at the untrusted mediator and is held to the
// ciphertext-only invariant by the plaintaint/keyscope analyzers.
//
// seclint:entry mediator
func (m *Mediator) HandleSession(conn transport.Conn) error {
	// Deferred, so the client link counts on every exit, the error frame
	// of an aborted session included.
	defer trafficCounters(m.Telemetry, leakage.PartyMediator, leakage.PartyClient, conn.Stats())
	client := link.New(conn, leakage.PartyClient)
	if err := m.handleSession(client); err != nil {
		return abort(client, m.Telemetry, leakage.PartyMediator, err)
	}
	return nil
}

func (m *Mediator) handleSession(client *link.Link) error {
	var req Request
	if err := client.Recv(msgRequest, &req); err != nil {
		return err
	}
	req.Params = req.Params.withDefaults()
	if err := req.Params.check(); err != nil {
		return err
	}
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
	d, sources, err := m.requestPhase(&req)
	querying.End()
	for _, s := range sources {
		defer s.Close()
		defer trafficCounters(m.Telemetry, leakage.PartyMediator, s.Peer(), s.Stats())
	}
	if err != nil {
		return err
	}

	watch := &stopwatch{party: leakage.PartyMediator, root: root}
	switch {
	case d.protocol == ProtocolPlaintext:
		err = m.mediatePlaintext(client, sources[0], sources[1], d, watch)
	case d.protocol == ProtocolMobileCode:
		err = m.mediateMobileCode(client, sources, d)
	case d.protocol == ProtocolDAS:
		err = m.mediateDAS(client, sources[0], sources[1], d, watch)
	case d.protocol == ProtocolCommutative:
		err = m.mediateCommutative(client, sources[0], sources[1], d, req.Params, watch)
	case d.protocol == ProtocolPM:
		err = m.mediatePM(client, sources[0], sources[1], d, watch)
	default:
		err = fmt.Errorf("mediation: unknown protocol %d", req.Protocol)
	}
	if err != nil {
		// Unblock sources that may still be waiting mid-protocol.
		abortLinks(err, sources...)
	}
	return err
}

// requestPhase runs Listing 1, steps 2–4, for a join, a union and an
// aggregate alike: decompose the global query, localize and dial the
// source of each relation it reads, ship each partial query q_i with its
// credential subset CR_i and join attribute set A_i, and collect the
// authorization answers. It returns one live link per relation of d, in
// d.relations() order, with the authorized schemas recorded in d. It
// returns d with any link it returns, and the caller closes the links on
// error too.
func (m *Mediator) requestPhase(req *Request) (*decomposition, []*link.Link, error) {
	d, err := decompose(req.SQL, m.Schemas)
	if err != nil {
		return nil, nil, err
	}
	d.protocol = delivery(d.query, req.Protocol)
	rels := d.relations()
	dials := make([]Dialer, len(rels))
	for i, rel := range rels {
		dial, ok := m.Routes[rel]
		if !ok {
			return nil, nil, fmt.Errorf("mediation: no source for relation %q", rel)
		}
		dials[i] = dial
	}
	var sources []*link.Link
	for i, dial := range dials {
		conn, err := dial()
		if err != nil {
			return d, sources, &ProtocolError{Party: leakage.PartySource(rels[i]), Err: fmt.Errorf("dialing: %w", err)}
		}
		if req.Params.Timeout > 0 {
			conn.SetTimeout(req.Params.Timeout)
		}
		sources = append(sources, link.New(conn, leakage.PartySource(rels[i])))
	}
	session, err := newSessionID()
	if err != nil {
		return d, sources, err
	}
	for i, rel := range rels {
		pq := PartialQuery{
			SessionID: session, Query: d.partial1, Relation: rel, JoinCols: d.joinCols1,
			Credentials: m.selectCredentials(rel, req.Credentials),
			Protocol:    d.protocol, Params: req.Params, Aggregate: d.query.Aggregate,
			QueryKey: req.QueryKey, QueryKeySig: req.QueryKeySig,
		}
		if i == 1 {
			pq.Query, pq.JoinCols = d.partial2, d.joinCols2
		}
		if d.protocol == ProtocolDAS && req.Params.Pushdown {
			// Selection-pushdown extension: ask the sources to index the
			// pushable WHERE columns as well.
			pq.FilterCols = filterColumns(extractPushdown(d.query.Where, m.Schemas[rel]), pq.JoinCols)
		}
		if err := sources[i].Send(msgPartialQuery, pq); err != nil {
			abortLinks(err, without(sources, i)...)
			return d, sources, err
		}
	}
	acks := make([]PartialAck, len(rels))
	for i := range rels {
		if err := sources[i].Recv(msgPartialAck, &acks[i]); err != nil {
			abortLinks(err, without(sources, i)...)
			return d, sources, err
		}
	}
	for i, rel := range rels {
		if !acks[i].Granted {
			err := fmt.Errorf("mediation: access to %s denied: %s", rel, acks[i].Reason)
			abortLinks(err, sources...)
			return d, sources, err
		}
	}
	d.schema1 = acks[0].Schema
	if len(acks) == 2 {
		d.schema2 = acks[1].Schema
	}
	return d, sources, nil
}

// without returns links minus the link at i: the live links to abort
// after link i failed.
func without(links []*link.Link, i int) []*link.Link {
	out := append([]*link.Link(nil), links[:i]...)
	return append(out, links[i+1:]...)
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

func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("mediation: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
