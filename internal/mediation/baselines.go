package mediation

import (
	"crypto/ecdh"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// ptResult is the plaintext baseline's final message: the mediator joined
// the plaintext partial results itself.
type ptResult struct {
	Result    wireRelation
	Schema2   relation.Schema
	JoinCols2 []string
}

// mediatePlaintext is the trusted-mediator baseline: partial results
// arrive in the clear and the mediator computes the join (Figure 1
// without any confidentiality mechanism). Used as the correctness oracle
// and the cost floor in the Section 6 experiments.
// seclint:entry mediator
func (m *Mediator) mediatePlaintext(client, s1, s2 transport.Conn, d *decomposition, watch *stopwatch) error {
	var w1, w2 wireRelation
	if err := recvInto(s1, "source:"+d.rel1, msgPTPartial, &w1); err != nil {
		return err
	}
	if err := recvInto(s2, "source:"+d.rel2, msgPTPartial, &w2); err != nil {
		return err
	}
	var joined *relation.Relation
	err := watch.phase(telemetry.PhaseMatch, func() error {
		r1, err := fromWire(w1)
		if err != nil {
			return err
		}
		r2, err := fromWire(w2)
		if err != nil {
			return err
		}
		// The plaintext mediator sees everything; record the obvious.
		m.Ledger.Observe(leakage.PartyMediator, "plaintext-tuples-seen", int64(r1.Len()+r2.Len()))
		joined, err = algebra.EquiJoin(r1, r2, d.joinCols1, d.joinCols2)
		return err
	})
	if err != nil {
		return err
	}
	return sendMsg(client, "client", msgPTResult, ptResult{Result: toWire(joined), Schema2: d.schema2, JoinCols2: d.joinCols2})
}

func (c *Client) runPlaintext(conn transport.Conn) (*relation.Relation, relation.Schema, []string, error) {
	var res ptResult
	if err := recvInto(conn, "mediator", msgPTResult, &res); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	out, err := fromWire(res.Result)
	if err != nil {
		return nil, relation.Schema{}, nil, err
	}
	return out, res.Schema2, res.JoinCols2, nil
}

// mcPartial is one hybrid-encrypted partial result: the prior MMM solution
// shipped these to the client together with mobile code computing the join
// after decryption. Here the "mobile code" is the client's local join.
type mcPartial struct {
	Schema   relation.Schema
	KeyShare []byte
	Rows     [][]byte
}

// mcResult forwards both encrypted partial results to the client. It is
// also the result of a union, whose join attribute lists are empty.
type mcResult struct {
	P1, P2               mcPartial
	JoinCols1, JoinCols2 []string
}

func (s *Source) serveMobileCode(conn transport.Conn, pq *PartialQuery, rel *relation.Relation, queryKey *ecdh.PublicKey, watch *stopwatch) error {
	var out mcPartial
	err := watch.phase(telemetry.PhaseSourceEncrypt, func() error {
		sess, err := hybrid.NewSessionECDH(queryKey)
		if err != nil {
			return err
		}
		s.Ledger.UsePrimitive(s.party(), "hybrid-encryption", int64(rel.Len()))
		out = mcPartial{Schema: rel.Schema(), KeyShare: sess.Share()}
		aad := []byte("mc:" + pq.SessionID + ":" + rel.Schema().Relation)
		for _, t := range rel.Tuples() {
			ct, err := sess.Seal(t.Encode(nil), aad)
			if err != nil {
				return err
			}
			out.Rows = append(out.Rows, ct.Marshal())
		}
		return nil
	})
	if err != nil {
		return err
	}
	return sendMsg(conn, "mediator", msgMCPartial, sessioned[mcPartial]{Session: pq.SessionID, Body: out})
}

// seclint:entry mediator
func (m *Mediator) mediateMobileCode(client, s1, s2 transport.Conn, d *decomposition) error {
	var p1, p2 sessioned[mcPartial]
	if err := recvInto(s1, "source:"+d.rel1, msgMCPartial, &p1); err != nil {
		return err
	}
	if err := recvInto(s2, "source:"+d.rel2, msgMCPartial, &p2); err != nil {
		return err
	}
	// The mobile-code mediator sees the encrypted partial results whole:
	// it learns both cardinalities (and forwards everything).
	m.Ledger.Observe(leakage.PartyMediator, "|R1|", int64(len(p1.Body.Rows)))
	m.Ledger.Observe(leakage.PartyMediator, "|R2|", int64(len(p2.Body.Rows)))
	return sendMsg(client, "client", msgMCResult, sessioned[mcResult]{
		Session: p1.Session,
		Body:    mcResult{P1: p1.Body, P2: p2.Body, JoinCols1: d.joinCols1, JoinCols2: d.joinCols2},
	})
}

// runMobileCode opens both partial results and merges them: a join
// evaluates the equi-join, a union concatenates (postProcess drops the
// duplicates of a plain UNION).
func (c *Client) runMobileCode(conn transport.Conn, q *sqlparse.Query, queryKey *ecdh.PrivateKey, watch *stopwatch) (*relation.Relation, relation.Schema, []string, error) {
	var res sessioned[mcResult]
	if err := recvInto(conn, "mediator", msgMCResult, &res); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	var joined *relation.Relation
	err := watch.phase(telemetry.PhasePostFilter, func() error {
		r1, err := c.openMCPartial(queryKey, res.Body.P1, res.Session)
		if err != nil {
			return err
		}
		r2, err := c.openMCPartial(queryKey, res.Body.P2, res.Session)
		if err != nil {
			return err
		}
		c.Ledger.Observe(leakage.PartyClient, "tuples-received", int64(r1.Len()+r2.Len()))
		if q.UnionWith != "" {
			// The relation names differ; the column lists must match.
			joined, err = algebra.Union(r1, r2.Rename(r1.Schema().Relation))
			return err
		}
		joined, err = algebra.EquiJoin(r1, r2, res.Body.JoinCols1, res.Body.JoinCols2)
		return err
	})
	if err != nil {
		return nil, relation.Schema{}, nil, err
	}
	return joined, res.Body.P2.Schema, res.Body.JoinCols2, nil
}

func (c *Client) openMCPartial(queryKey *ecdh.PrivateKey, p mcPartial, session string) (*relation.Relation, error) {
	recv, err := hybrid.NewReceiverECDH(queryKey, p.KeyShare)
	if err != nil {
		return nil, err
	}
	c.Ledger.UsePrimitive(leakage.PartyClient, "hybrid-decryption", int64(len(p.Rows)))
	out := relation.New(p.Schema)
	aad := []byte("mc:" + session + ":" + p.Schema.Relation)
	for _, blob := range p.Rows {
		ct, err := hybrid.UnmarshalCiphertext(blob)
		if err != nil {
			return nil, err
		}
		pt, err := recv.Open(ct, aad)
		if err != nil {
			return nil, err
		}
		t, err := relation.DecodeTuple(p.Schema, pt)
		if err != nil {
			return nil, err
		}
		if err := out.Append(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sessioned wraps a payload with its session id so AAD strings can be
// recomputed by the client.
type sessioned[T any] struct {
	Session string
	Body    T
}
