package mediation

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"sync"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	"github.com/secmediation/secmediation/internal/crypto/paillier"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// Client is the querying party: it holds the private decryption key whose
// public half is bound into its credentials, issues global queries, and
// performs the client side of each delivery phase (decryption, the DAS
// query translation, PM matching, result assembly).
type Client struct {
	// PrivateKey is the hybrid-encryption private key matching the public
	// key in the credentials.
	PrivateKey *rsa.PrivateKey
	// Credentials is the credential set CR attached to queries.
	Credentials credential.Set
	// Ledger optionally records leakage and primitive usage.
	Ledger *leakage.Ledger
	// Telemetry optionally records phase spans and traffic metrics for
	// this party. Params.Telemetry overrides it per query.
	Telemetry *telemetry.Registry

	// homKey caches the Paillier key pair for aggregation queries; homMu
	// guards it so concurrent sessions share one key generation.
	homMu  sync.Mutex
	homKey *paillier.PrivateKey
}

// NewClient creates a client with a fresh hybrid key pair. Callers
// typically then have a CA issue credentials for
// &client.PrivateKey.PublicKey.
func NewClient() (*Client, error) {
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return nil, fmt.Errorf("mediation: client key: %w", err)
	}
	return &Client{PrivateKey: key}, nil
}

// HomomorphicKey returns (generating on first use) the client's Paillier
// key pair for encrypted aggregation.
func (c *Client) HomomorphicKey(bits int) (*paillier.PrivateKey, error) {
	c.homMu.Lock()
	defer c.homMu.Unlock()
	if c.homKey == nil || c.homKey.N.BitLen() != bits {
		k, err := paillier.GenerateKey(rand.Reader, bits)
		if err != nil {
			return nil, err
		}
		c.homKey = k
	}
	return c.homKey, nil
}

// Query runs one global query through the mediator reachable over conn and
// returns the global result. This drives Listing 1 step 1 plus the client
// side of the selected delivery phase.
// Query failures during the delivery phase surface as *ProtocolError
// values attributing the abort to the party (and, when known, the phase)
// where it originated — "mediator unreachable" and "source 2 died during
// cross.encrypt" are distinguishable with errors.As. Local errors before
// the request leaves (bad SQL, key generation) stay untyped.
func (c *Client) Query(conn transport.Conn, sql string, proto Protocol, params Params) (*relation.Relation, error) {
	params = params.withDefaults()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if params.Timeout > 0 {
		conn.SetTimeout(params.Timeout)
	}
	proto = delivery(q, proto)
	req := Request{SQL: sql, Credentials: c.Credentials, Protocol: proto, Params: params}
	if q.Aggregate != nil {
		hk, err := c.HomomorphicKey(params.PaillierBits)
		if err != nil {
			return nil, err
		}
		req.HomomorphicKey = &hk.PublicKey
	}
	// PM draws a fresh key per query, so the mediator cannot link a
	// client's PM queries by its public key.
	var pmKey *ecelgamal.PrivateKey
	if proto == ProtocolPM && q.Aggregate == nil {
		if pmKey, err = ecelgamal.GenerateKey(rand.Reader); err != nil {
			return nil, err
		}
		req.PMKey = pmKey.PublicKey()
	}
	if err := sendMsg(conn, "mediator", msgRequest, req); err != nil {
		return nil, c.abort(conn, params, err)
	}
	root := c.telemetry(params).Tracer(leakage.PartyClient).Start("session")
	root.Annotate("protocol", proto.String())
	annotateSession(root, conn)
	defer root.End()
	watch := newStopwatch(c.Ledger, leakage.PartyClient)
	watch.attach(root)
	var joined *relation.Relation
	var schema2 relation.Schema
	var joinCols2 []string
	switch {
	case q.Aggregate != nil:
		joined, err = c.runAggregate(conn, params, watch)
	case proto == ProtocolPlaintext:
		joined, schema2, joinCols2, err = c.runPlaintext(conn)
	case proto == ProtocolMobileCode:
		joined, schema2, joinCols2, err = c.runMobileCode(conn, q, watch)
	case proto == ProtocolDAS:
		joined, schema2, joinCols2, err = c.runDAS(conn, q, params, watch)
	case proto == ProtocolCommutative:
		joined, schema2, joinCols2, err = c.runCommutative(conn, params, watch)
	case proto == ProtocolPM:
		joined, schema2, joinCols2, err = c.runPM(conn, pmKey, params, watch)
	default:
		err = fmt.Errorf("mediation: unknown protocol %d", proto)
	}
	if err != nil {
		return nil, c.abort(conn, params, err)
	}
	c.recordTraffic(conn, c.telemetry(params))
	if q.Aggregate != nil {
		// The source already applied the WHERE clause.
		return joined, nil
	}
	return postProcess(q, joined, schema2, joinCols2)
}

// abort finalizes a failed delivery phase: the error is attributed (a
// *ProtocolError blamed on this client unless the chain already carries
// the origin), counted when it is a timeout, and best-effort reported to
// the mediator so the remaining parties unblock immediately.
func (c *Client) abort(conn transport.Conn, params Params, err error) error {
	err = attribute(leakage.PartyClient, "", err)
	countTimeout(c.telemetry(params), leakage.PartyClient, err)
	sendError(conn, leakage.PartyClient, err)
	return err
}

// telemetry resolves the registry for one query: the per-query override
// in params wins over the client's own.
func (c *Client) telemetry(params Params) *telemetry.Registry {
	if params.Telemetry.Enabled() {
		return params.Telemetry
	}
	return c.Telemetry
}

func (c *Client) recordTraffic(conn transport.Conn, reg *telemetry.Registry) {
	trafficGauges(reg, leakage.PartyClient, "mediator", conn.Stats())
	if c.Ledger == nil {
		return
	}
	c.Ledger.Observe(leakage.PartyClient, "bytes-sent", conn.Stats().BytesSent())
	c.Ledger.Observe(leakage.PartyClient, "bytes-received", conn.Stats().BytesRecv())
	c.Ledger.Observe(leakage.PartyClient, "interactions-with-mediator", conn.Stats().MsgsSent()+conn.Stats().MsgsRecv())
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
