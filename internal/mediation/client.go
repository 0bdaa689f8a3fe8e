package mediation

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"fmt"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation/link"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// Client is the querying party: it holds the private key whose public
// half is bound into its credentials, issues global queries, and performs
// the client side of each delivery phase (decryption, the DAS query
// translation, PM matching, result assembly).
type Client struct {
	// PrivateKey matches the public key in the credentials. It signs a
	// P-256 query root once per root lifetime, shared by every Client
	// that holds the same key, and each query derives from that root the
	// fresh key its data is encrypted to.
	PrivateKey *rsa.PrivateKey
	// Credentials is the credential set CR attached to queries.
	Credentials credential.Set
	// Ledger optionally records what this party learns and the
	// primitives it applies (Tables 1 and 2).
	Ledger *leakage.Ledger
	// Telemetry optionally records phase spans and traffic metrics for
	// this party.
	Telemetry *telemetry.Registry
}

// NewClient creates a client with a fresh RSA key pair. Callers
// typically then have a CA issue credentials for
// &client.PrivateKey.PublicKey.
func NewClient() (*Client, error) {
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return nil, fmt.Errorf("mediation: client key: %w", err)
	}
	return &Client{PrivateKey: key}, nil
}

// Query runs one global query through the mediator reachable over conn and
// returns the global result. This drives Listing 1 step 1 plus the client
// side of the selected delivery phase.
// Query failures during the delivery phase surface as *ProtocolError
// values attributing the abort to the party (and, when known, the phase)
// where it originated — "mediator unreachable" and "source 2 died during
// cross.encrypt" are distinguishable with errors.As. Params that no
// party would accept fail locally, as a *ProtocolError blamed on the
// client; other local errors before the request leaves (bad SQL, key
// generation) stay untyped.
func (c *Client) Query(conn transport.Conn, sql string, proto Protocol, params Params) (*relation.Relation, error) {
	params = params.withDefaults()
	if err := params.check(); err != nil {
		return nil, attribute(leakage.PartyClient, "", err)
	}
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if params.Timeout > 0 {
		conn.SetTimeout(params.Timeout)
	}
	mediator := link.New(conn, leakage.PartyMediator)
	proto = delivery(q, proto)
	req := Request{SQL: sql, Credentials: c.Credentials, Protocol: proto, Params: params}
	// A fresh query key per query, derived from the key's signed query
	// root: no query's sealed frames open under another's key, and the
	// root's point links nothing the credentials do not already link.
	var queryKey *ecdh.PrivateKey
	if needsQueryKey(proto) {
		if queryKey, err = req.bindQueryKey(c.PrivateKey); err != nil {
			return nil, err
		}
	}
	// The session's traffic counts on every exit from here on, aborts
	// included.
	defer trafficCounters(c.Telemetry, leakage.PartyClient, mediator.Peer(), conn.Stats())
	if err := mediator.Send(msgRequest, req); err != nil {
		return nil, abort(mediator, c.Telemetry, leakage.PartyClient, err)
	}
	root := c.Telemetry.Tracer(leakage.PartyClient).Start("session")
	root.Annotate("protocol", proto.String())
	annotateSession(root, mediator)
	defer root.End()
	watch := &stopwatch{party: leakage.PartyClient, root: root}
	var joined *relation.Relation
	var schema2 relation.Schema
	var joinCols2 []string
	switch {
	case proto == ProtocolPlaintext:
		joined, schema2, joinCols2, err = c.runPlaintext(mediator)
	case proto == ProtocolMobileCode:
		joined, schema2, joinCols2, err = c.runMobileCode(mediator, q, queryKey, watch)
	case proto == ProtocolDAS:
		joined, schema2, joinCols2, err = c.runDAS(mediator, q, queryKey, params, watch)
	case proto == ProtocolCommutative:
		joined, schema2, joinCols2, err = c.runCommutative(mediator, q, queryKey, watch)
	case proto == ProtocolPM:
		joined, schema2, joinCols2, err = c.runPM(mediator, q, queryKey, watch)
	default:
		err = fmt.Errorf("mediation: unknown protocol %d", proto)
	}
	if err != nil {
		return nil, abort(mediator, c.Telemetry, leakage.PartyClient, err)
	}
	if q.Aggregate != nil {
		// The source already applied the WHERE clause and folded the rows.
		return joined, nil
	}
	return postProcess(q, joined, schema2, joinCols2)
}

// Intersect computes the set intersection of two relations with identical
// schemas through the secure mediation machinery — the second operation of
// Agrawal et al.'s framework (paper Section 4). It reduces to a NATURAL
// JOIN over all columns (same-schema natural join = bag intersection)
// followed by duplicate elimination; with the commutative protocol the
// client receives exactly the common tuples.
func (c *Client) Intersect(conn transport.Conn, rel1, rel2 string, params Params) (*relation.Relation, error) {
	res, err := c.Query(conn, "SELECT * FROM "+rel1+" NATURAL JOIN "+rel2, ProtocolCommutative, params)
	if err != nil {
		return nil, err
	}
	return algebra.Distinct(res), nil
}
