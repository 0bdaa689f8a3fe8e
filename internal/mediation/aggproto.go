package mediation

import (
	"crypto/rand"
	"fmt"
	"math"
	"math/big"

	"github.com/secmediation/secmediation/internal/crypto/paillier"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// The aggregation extension: mediator-side SUM/COUNT/AVG over Paillier
// ciphertexts, inspired by the aggregation-over-encrypted-data line of
// work the paper's Section 7 discusses ([14],[9] — whose custom scheme was
// broken by Mykletun/Tsudik; we use the provably additive Paillier scheme
// instead). The source encrypts the aggregated column value-wise under the
// client's homomorphic key; the untrusted mediator folds the ciphertexts
// into E(Σ) without learning any value; the client decrypts one number.
// The mediator learns only the row count (which COUNT reveals by design).

// aggScale is the fixed-point scale for FLOAT aggregation.
const aggScale = 1_000_000

const (
	msgAggPartial = "agg.partial"
	msgAggResult  = "agg.result"
)

// aggPartial is the source's message: the encrypted column.
type aggPartial struct {
	Count  int64
	Values []*paillier.Ciphertext // empty for COUNT
	Kind   relation.Kind          // the aggregated column's kind
}

// aggResult is the mediator's message to the client.
type aggResult struct {
	Func   string
	Column string
	Count  int64
	ESum   *paillier.Ciphertext // nil for COUNT
	Kind   relation.Kind
}

// serveAggregate implements the source's side: execute the (filtered)
// partial query, then encrypt the aggregated column value-wise.
func (s *Source) serveAggregate(conn transport.Conn, pq *PartialQuery, rel *relation.Relation, watch *stopwatch) error {
	if pq.HomomorphicKey == nil || pq.HomomorphicKey.N == nil {
		return fmt.Errorf("agg: request carries no homomorphic client key")
	}
	pk := derivePaillierKey(pq.HomomorphicKey)
	spec := pq.Aggregate
	if spec == nil {
		return fmt.Errorf("agg: partial query carries no aggregate spec")
	}
	out := aggPartial{Count: int64(rel.Len())}
	err := watch.phase(telemetry.PhaseSourceEncrypt, func() error {
		if spec.Func == "COUNT" {
			return nil // the cardinality is the whole answer
		}
		ci := rel.Schema().IndexOf(spec.Column)
		if ci < 0 {
			return fmt.Errorf("agg: relation %s has no column %q", pq.Relation, spec.Column)
		}
		kind := rel.Schema().Columns[ci].Kind
		if kind != relation.KindInt && kind != relation.KindFloat {
			return fmt.Errorf("agg: cannot aggregate %v column %q", kind, spec.Column)
		}
		out.Kind = kind
		for _, t := range rel.Tuples() {
			v, err := fixedPoint(t[ci])
			if err != nil {
				return err
			}
			ct, err := pk.EncryptSigned(rand.Reader, big.NewInt(v))
			if err != nil {
				return err
			}
			out.Values = append(out.Values, ct)
		}
		s.Ledger.UsePrimitive(s.party(), "homomorphic-encryption", int64(len(out.Values)))
		return nil
	})
	if err != nil {
		return err
	}
	return sendMsg(conn, "mediator", msgAggPartial, out)
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

// mediateAggregate is the mediator's side: fold the encrypted column into
// E(Σ) and report the count.
// seclint:entry mediator
func (m *Mediator) mediateAggregate(client, conn transport.Conn, req *Request, d *decomposition, watch *stopwatch) error {
	var part aggPartial
	if err := recvInto(conn, "source:"+d.rel1, msgAggPartial, &part); err != nil {
		return err
	}
	// The mediator learns only the row count.
	m.Ledger.Observe(leakage.PartyMediator, "|R|", part.Count)

	spec := d.query.Aggregate
	res := aggResult{Func: spec.Func, Column: spec.Column, Count: part.Count, Kind: part.Kind}
	err := watch.phase(telemetry.PhaseMatch, func() error {
		if spec.Func == "COUNT" {
			return nil
		}
		pk := derivePaillierKey(req.HomomorphicKey)
		acc, err := pk.Encrypt(rand.Reader, new(big.Int))
		if err != nil {
			return err
		}
		for _, c := range part.Values {
			acc = pk.Add(acc, c)
		}
		m.Ledger.UsePrimitive(leakage.PartyMediator, "homomorphic-addition", int64(len(part.Values)))
		res.ESum = acc
		return nil
	})
	if err != nil {
		return err
	}
	return sendMsg(client, "client", msgAggResult, res)
}

// runAggregate is the client's side: decrypt E(Σ) and assemble the
// one-row result relation.
func (c *Client) runAggregate(conn transport.Conn, params Params, watch *stopwatch) (*relation.Relation, error) {
	var res aggResult
	if err := recvInto(conn, "mediator", msgAggResult, &res); err != nil {
		return nil, err
	}
	var out relation.Value
	err := watch.phase(telemetry.PhasePostFilter, func() error {
		if res.Func == "COUNT" {
			out = relation.Int(res.Count)
			return nil
		}
		hk, err := c.HomomorphicKey(params.PaillierBits)
		if err != nil {
			return err
		}
		if res.ESum == nil {
			return fmt.Errorf("mediation: aggregate result carries no sum")
		}
		sum, err := hk.DecryptSigned(res.ESum)
		if err != nil {
			return err
		}
		c.Ledger.UsePrimitive(leakage.PartyClient, "homomorphic-decryption", 1)
		if !sum.IsInt64() {
			return fmt.Errorf("mediation: aggregate sum overflows int64")
		}
		switch {
		case res.Func == "AVG":
			if res.Count == 0 {
				return fmt.Errorf("mediation: AVG over empty relation")
			}
			f := float64(sum.Int64()) / float64(res.Count)
			if res.Kind == relation.KindFloat {
				f /= aggScale
			}
			out = relation.Float(f)
		case res.Kind == relation.KindFloat:
			out = relation.Float(float64(sum.Int64()) / aggScale)
		default:
			out = relation.Int(sum.Int64())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	schema, err := relation.NewSchema("", relation.Column{Name: res.Func + "(" + res.Column + ")", Kind: out.Kind()})
	if err != nil {
		return nil, err
	}
	return relation.FromTuples(schema, relation.Tuple{out})
}

// derivePaillierKey completes a transported public key (NSquared is
// derived locally, not trusted from the wire).
func derivePaillierKey(pk *paillier.PublicKey) *paillier.PublicKey {
	return &paillier.PublicKey{N: pk.N, NSquared: new(big.Int).Mul(pk.N, pk.N)}
}
