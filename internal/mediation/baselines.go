package mediation

import (
	"crypto/ecdh"
	"fmt"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation/link"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
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
func (m *Mediator) mediatePlaintext(client, s1, s2 *link.Link, d *decomposition, watch *stopwatch) error {
	var w1, w2 wireRelation
	if err := s1.Recv(msgPTPartial, &w1); err != nil {
		return err
	}
	if err := s2.Recv(msgPTPartial, &w2); err != nil {
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
	return client.Send(msgPTResult, ptResult{Result: toWire(joined), Schema2: d.schema2, JoinCols2: d.joinCols2})
}

func (c *Client) runPlaintext(mediator *link.Link) (*relation.Relation, relation.Schema, []string, error) {
	var res ptResult
	if err := mediator.Recv(msgPTResult, &res); err != nil {
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
// Session lets the client recompute the rows' AAD.
type mcPartial struct {
	Session  string
	Schema   relation.Schema
	KeyShare []byte
	Rows     [][]byte
}

// mcResult forwards the encrypted partial results to the client, one per
// relation the query reads: two for a join or a union, one for an
// aggregate. A join's client resolves A_1 and A_2 from its own query over
// the sealed schemas.
type mcResult struct {
	Partials []mcPartial
}

func (s *Source) serveMobileCode(mediator *link.Link, pq *PartialQuery, rel *relation.Relation, queryKey *ecdh.PublicKey, watch *stopwatch) error {
	var out mcPartial
	err := watch.phase(telemetry.PhaseSourceEncrypt, func() error {
		sess, err := hybrid.NewSessionECDH(queryKey)
		if err != nil {
			return err
		}
		s.Ledger.UsePrimitive(s.party(), "hybrid-encryption", int64(rel.Len()))
		out = mcPartial{Session: pq.SessionID, Schema: rel.Schema(), KeyShare: sess.Share()}
		aad := rel.Schema().AAD("mc:" + pq.SessionID)
		// One seal per row, so the mediator learns |R_i| and no more.
		for _, t := range rel.Tuples() {
			set, err := relation.EncodeTupleSet([]relation.Tuple{t}, nil)
			if err != nil {
				return err
			}
			ct, err := sess.Seal(set, aad)
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
	return mediator.Send(msgMCPartial, out)
}

// mediateMobileCode relays the sealed partial result of each source in
// d.relations() to the client: two for a join or a union, one for an
// aggregate.
// seclint:entry mediator
func (m *Mediator) mediateMobileCode(client *link.Link, sources []*link.Link, d *decomposition) error {
	parts := make([]mcPartial, len(d.relations()))
	for i := range parts {
		if err := sources[i].Recv(msgMCPartial, &parts[i]); err != nil {
			return err
		}
		// The mobile-code mediator sees the encrypted partial results whole:
		// it learns the cardinalities of a join or a union (and forwards
		// everything). An aggregate's one row tells it nothing.
		if d.query.Aggregate == nil {
			m.Ledger.Observe(leakage.PartyMediator, fmt.Sprintf("|R%d|", i+1), int64(len(parts[i].Rows)))
		}
	}
	return client.Send(msgMCResult, mcResult{Partials: parts})
}

// runMobileCode opens the partial results and merges them: a join
// evaluates the equi-join, a union concatenates (postProcess drops the
// duplicates of a plain UNION), and an aggregate's one partial result is
// already the answer.
func (c *Client) runMobileCode(mediator *link.Link, q *sqlparse.Query, queryKey *ecdh.PrivateKey, watch *stopwatch) (*relation.Relation, relation.Schema, []string, error) {
	var res mcResult
	if err := mediator.Recv(msgMCResult, &res); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	var joined *relation.Relation
	var joinCols2 []string
	err := watch.phase(telemetry.PhasePostFilter, func() error {
		schemas := make([]relation.Schema, len(res.Partials))
		for i, p := range res.Partials {
			schemas[i] = p.Schema
		}
		if err := sealedFor(q, schemas...); err != nil {
			return err
		}
		r1, err := c.openMCPartial(queryKey, res.Partials[0])
		if err != nil {
			return err
		}
		if q.Aggregate != nil {
			c.Ledger.Observe(leakage.PartyClient, "tuples-received", int64(r1.Len()))
			joined = r1
			return nil
		}
		r2, err := c.openMCPartial(queryKey, res.Partials[1])
		if err != nil {
			return err
		}
		c.Ledger.Observe(leakage.PartyClient, "tuples-received", int64(r1.Len()+r2.Len()))
		if q.UnionWith != "" {
			// The relation names differ; the column lists must match.
			joined, err = algebra.Union(r1, r2.Rename(r1.Schema().Relation))
			return err
		}
		var joinCols1 []string
		if joinCols1, joinCols2, err = joinColumns(q, r1.Schema(), r2.Schema()); err != nil {
			return err
		}
		joined, err = algebra.EquiJoin(r1, r2, joinCols1, joinCols2)
		return err
	})
	if err != nil {
		return nil, relation.Schema{}, nil, err
	}
	if q.Aggregate != nil {
		return joined, relation.Schema{}, nil, nil
	}
	return joined, res.Partials[1].Schema, joinCols2, nil
}

// openMCPartial opens one sealed partial result. Each row is sealed under
// a fresh nonce, so a repeated nonce is a row the mediator replayed.
func (c *Client) openMCPartial(queryKey *ecdh.PrivateKey, p mcPartial) (*relation.Relation, error) {
	recv, err := hybrid.NewReceiverECDH(queryKey, p.KeyShare)
	if err != nil {
		return nil, err
	}
	c.Ledger.UsePrimitive(leakage.PartyClient, "hybrid-decryption", int64(len(p.Rows)))
	out := relation.New(p.Schema)
	aad := p.Schema.AAD("mc:" + p.Session)
	nonces := make(map[string]bool, len(p.Rows))
	for _, blob := range p.Rows {
		ct, err := hybrid.UnmarshalCiphertext(blob)
		if err != nil {
			return nil, err
		}
		if nonces[string(ct.Nonce)] {
			return nil, fmt.Errorf("mediation: a sealed row of %s comes twice", p.Schema.Relation)
		}
		nonces[string(ct.Nonce)] = true
		pt, err := recv.Open(ct, aad)
		if err != nil {
			return nil, err
		}
		rows, err := relation.DecodeTupleSet(p.Schema, nil, pt)
		if err != nil {
			return nil, err
		}
		if len(rows) != 1 {
			return nil, fmt.Errorf("mediation: a sealed row of %s holds %d rows", p.Schema.Relation, len(rows))
		}
		if err := out.Append(rows[0]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
