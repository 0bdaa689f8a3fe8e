package mediation

import (
	"fmt"
	"math/big"

	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/parallel"
	"github.com/secmediation/secmediation/internal/pm"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// pmCoeffs is a source's Listing 4 step 2/3 message: the EC-ElGamal
// encrypted coefficients of its active-domain polynomial (bucketed per the
// FNP optimization; one bucket means the paper's literal single
// polynomial).
type pmCoeffs struct {
	Session string
	Schema  relation.Schema
	Buckets pm.ECBuckets
}

// pmCross forwards the opposite source's encrypted polynomial (step 4).
type pmCross struct {
	Buckets pm.ECBuckets
}

// pmEvals is a source's step 5/6 message: one masked evaluation and its
// sealed tuple set per own join value, shuffled.
type pmEvals struct {
	Evals []pm.Eval
}

// pmResult is the mediator's step 7 message to the client: all n+m
// evaluations with their sealed tuple sets.
type pmResult struct {
	Session              string
	Schema1, Schema2     relation.Schema
	JoinCols1, JoinCols2 []string
	Evals1, Evals2       []pm.Eval
}

// servePM implements a datasource's role in Listing 4: build the
// polynomial over the active domain of the join attributes, encrypt its
// coefficients under the client's EC-ElGamal point, then obliviously
// evaluate the opposite source's polynomial at every own value, masked,
// with the tuple set sealed under the key only a match decrypts to
// (footnote 2's out-of-band payload, the only mode). An empty partial
// result still ships B filler buckets and evaluates nothing.
func (s *Source) servePM(conn transport.Conn, pq *PartialQuery, rel *relation.Relation, watch *stopwatch) error {
	pk, err := ecelgamal.ParsePublicKey(pq.PMKey)
	if err != nil {
		return fmt.Errorf("pm: request carries no valid client key: %w", err)
	}
	groupsByKey, err := rel.GroupByColumns(pq.JoinCols)
	if err != nil {
		return err
	}
	roots := make([]*big.Int, len(groupsByKey))
	for i, g := range groupsByKey {
		roots[i] = pm.RootOfBytes(relation.EncodeValues(g.Key, nil))
	}
	var coeffs pmCoeffs
	err = watch.phase(telemetry.PhaseSourceEncrypt, func() error {
		buckets, err := pm.BuildBuckets(roots, pq.Params.Buckets, ecelgamal.Order())
		if err != nil {
			return err
		}
		enc, err := buckets.EncryptEC(pk, pq.Params.Workers)
		if err != nil {
			return err
		}
		nCoeffs := int64(len(enc.Polys)) * int64(buckets.MaxDegree()+1)
		s.Ledger.UsePrimitive(s.party(), "homomorphic-encryption", nCoeffs)
		coeffs = pmCoeffs{Session: pq.SessionID, Schema: rel.Schema(), Buckets: *enc}
		return nil
	})
	if err != nil {
		return err
	}
	if err := sendMsg(conn, "mediator", msgPMCoeffs, coeffs); err != nil {
		return err
	}

	var cross pmCross
	if err := recvInto(conn, "mediator", msgPMCross, &cross); err != nil {
		return err
	}
	var evals pmEvals
	err = watch.phase(telemetry.PhaseCrossEncrypt, func() error {
		// Section 6: each source learns the opposite polynomial degree(s),
		// i.e. the opposite active-domain size.
		s.Ledger.Observe(s.party(), "|domactive(opposite)|", totalDegree(&cross.Buckets))
		payloads := make([][]byte, len(groupsByKey))
		for i, g := range groupsByKey {
			payloads[i] = relation.EncodeTupleSet(g.Tuples)
		}
		// The oblivious evaluations — Θ(max-load) homomorphic
		// multiply-adds plus a masking per value — dominate the sender's
		// cost; MaskedEvalBatch fans them out over the worker pool.
		aad := []byte("pm:" + pq.SessionID + ":" + rel.Schema().Relation)
		evals.Evals, err = cross.Buckets.MaskedEvalBatch(pk, roots, payloads, aad, pq.Params.Workers)
		if err != nil {
			return err
		}
		n := int64(len(groupsByKey))
		s.Ledger.UsePrimitive(s.party(), "homomorphic-evaluation", n)
		s.Ledger.UsePrimitive(s.party(), "random-masking", n)
		s.Ledger.UsePrimitive(s.party(), "hybrid-encryption", n)
		// Shuffle the evaluations so positions carry no join-order signal.
		return shuffleSlice(evals.Evals)
	})
	if err != nil {
		return err
	}
	return sendMsg(conn, "mediator", msgPMEvals, evals)
}

// mediatePM implements the mediator's role: forward the encrypted
// coefficients to the opposite source (step 4) and ship the n+m encrypted
// evaluations to the client (step 7). The mediator never decrypts
// anything; it only observes the bucket count and degree.
// seclint:entry mediator
func (m *Mediator) mediatePM(client, s1, s2 transport.Conn, d *decomposition, watch *stopwatch) error {
	var c1, c2 pmCoeffs
	if err := recvInto(s1, "source:"+d.rel1, msgPMCoeffs, &c1); err != nil {
		return err
	}
	if err := recvInto(s2, "source:"+d.rel2, msgPMCoeffs, &c2); err != nil {
		return err
	}
	// Table 1: the mediator learns the bucket count B and the uniform
	// bucket degree (the maximum load); at B = 1 the degree is the
	// active-domain size.
	m.Ledger.Observe(leakage.PartyMediator, "|domactive(R1.Ajoin)|", totalDegree(&c1.Buckets))
	m.Ledger.Observe(leakage.PartyMediator, "|domactive(R2.Ajoin)|", totalDegree(&c2.Buckets))

	if err := sendMsg(s1, "source:"+d.rel1, msgPMCross, pmCross{Buckets: c2.Buckets}); err != nil {
		return err
	}
	if err := sendMsg(s2, "source:"+d.rel2, msgPMCross, pmCross{Buckets: c1.Buckets}); err != nil {
		return err
	}
	var e1, e2 pmEvals
	if err := recvInto(s1, "source:"+d.rel1, msgPMEvals, &e1); err != nil {
		return err
	}
	if err := recvInto(s2, "source:"+d.rel2, msgPMEvals, &e2); err != nil {
		return err
	}
	return sendMsg(client, "client", msgPMResult, pmResult{
		Session: c1.Session,
		Schema1: c1.Schema, Schema2: c2.Schema,
		JoinCols1: d.joinCols1, JoinCols2: d.joinCols2,
		Evals1: e1.Evals, Evals2: e2.Evals,
	})
}

func totalDegree(b *pm.ECBuckets) int64 {
	var total int64
	for _, p := range b.Polys {
		total += int64(len(p) - 1)
	}
	return total
}

// pmSide is one opened side of the PM result: root → tuple set.
type pmSide map[string][]relation.Tuple

// runPM implements the client's step 8: decrypt all n+m evaluations under
// the query's ephemeral key, open the blobs that match, match equal roots
// across the two sides and cross-combine the tuple sets.
func (c *Client) runPM(conn transport.Conn, sk *ecelgamal.PrivateKey, params Params, watch *stopwatch) (*relation.Relation, relation.Schema, []string, error) {
	var res pmResult
	if err := recvInto(conn, "mediator", msgPMResult, &res); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	var joined *relation.Relation
	err := watch.phase(telemetry.PhasePostFilter, func() error {
		// Table 1: the client receives encrypted values of both partial
		// results (n+m of them) but can open only the matching ones.
		c.Ledger.Observe(leakage.PartyClient, "encrypted-values-received", int64(len(res.Evals1)+len(res.Evals2)))
		c.Ledger.UsePrimitive(leakage.PartyClient, "homomorphic-decryption", int64(len(res.Evals1)+len(res.Evals2)))

		side1, err := openPMSide(sk, res.Evals1, params.Workers, res.Session, res.Schema1)
		if err != nil {
			return err
		}
		side2, err := openPMSide(sk, res.Evals2, params.Workers, res.Session, res.Schema2)
		if err != nil {
			return err
		}
		schema, err := res.Schema1.Concat(res.Schema2)
		if err != nil {
			return err
		}
		joined = relation.New(schema)
		for root, ts1 := range side1 {
			ts2, ok := side2[root]
			if !ok {
				continue
			}
			for _, t1 := range ts1 {
				for _, t2 := range ts2 {
					t := make(relation.Tuple, 0, len(t1)+len(t2))
					t = append(t, t1...)
					t = append(t, t2...)
					if err := joined.Append(t); err != nil {
						return err
					}
				}
			}
		}
		c.Ledger.Observe(leakage.PartyClient, "result-tuples", int64(joined.Len()))
		return nil
	})
	if err != nil {
		return nil, relation.Schema{}, nil, err
	}
	return joined, res.Schema2, res.JoinCols2, nil
}

// pmOpened is one evaluation after decryption: ok marks a match.
type pmOpened struct {
	root    *big.Int
	payload []byte
	ok      bool
}

// openPMSide decrypts one source's evaluations and returns the matching
// entries keyed by root. A blob that does not open is a non-match; a
// ciphertext that is not two curve points aborts the query.
func openPMSide(sk *ecelgamal.PrivateKey, evals []pm.Eval, workers int, session string, schema relation.Schema) (pmSide, error) {
	aad := []byte("pm:" + session + ":" + schema.Relation)
	opened, err := parallel.Map(len(evals), workers, func(i int) (pmOpened, error) {
		root, payload, ok, err := pm.OpenEval(sk, evals[i], aad)
		return pmOpened{root, payload, ok}, err
	})
	if err != nil {
		return nil, err
	}
	side := make(pmSide)
	for _, o := range opened {
		if !o.ok {
			continue // non-matching value: decrypts to a random point
		}
		tuples, err := relation.DecodeTupleSet(schema, o.payload)
		if err != nil {
			return nil, err
		}
		side[o.root.String()] = tuples
	}
	return side, nil
}
