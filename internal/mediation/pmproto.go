package mediation

import (
	"crypto/ecdh"
	"fmt"
	"math/big"

	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation/link"
	"github.com/secmediation/secmediation/internal/parallel"
	"github.com/secmediation/secmediation/internal/pm"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
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

// pmEvals is a source's step 5/6 message: one masked evaluation and its
// sealed tuple set per own join value, shuffled.
type pmEvals struct {
	Evals []pm.Eval
}

// pmResult is the mediator's step 7 message to the client: all n+m
// evaluations with their sealed tuple sets. It carries no A_i: the
// client resolves them from its own query.
type pmResult struct {
	Session          string
	Schema1, Schema2 relation.Schema
	Evals1, Evals2   []pm.Eval
}

// servePM implements a datasource's role in Listing 4: build the
// polynomials over the active domain of the join attributes, in
// pm.BucketCount(n) buckets for its own n values, encrypt their
// coefficients under the query key as an EC-ElGamal point, then
// obliviously evaluate the opposite source's polynomial at every own
// value, masked, with the tuple set sealed under the key only a match
// decrypts to (footnote 2's out-of-band payload, the only mode). An
// empty partial result ships one filler bucket of load 1, as a
// one-value domain does, and evaluates nothing.
func (s *Source) servePM(mediator *link.Link, pq *PartialQuery, rel *relation.Relation, queryKey *ecdh.PublicKey, watch *stopwatch) error {
	pk := ecelgamal.PublicKeyFromECDH(queryKey)
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
		buckets, err := pm.BuildBuckets(roots, pm.BucketCount(len(roots)), ecelgamal.Order())
		if err != nil {
			return err
		}
		enc, err := buckets.EncryptEC(pk)
		if err != nil {
			return err
		}
		nCoeffs := int64(len(enc.Polys)) * int64(buckets.MaxDegree())
		s.Ledger.UsePrimitive(s.party(), "homomorphic-encryption", nCoeffs)
		coeffs = pmCoeffs{Session: pq.SessionID, Schema: rel.Schema(), Buckets: *enc}
		return nil
	})
	if err != nil {
		return err
	}
	if err := mediator.Send(msgPMCoeffs, coeffs); err != nil {
		return err
	}

	// Step 4: the opposite source's encrypted polynomial. Its decoder
	// refuses a shape no source derives (pm.ECBuckets.DecodeFrom), and
	// Recv blames the mediator for it.
	var cross pm.ECBuckets
	if err := mediator.Recv(msgPMCross, &cross); err != nil {
		return err
	}
	var evals pmEvals
	err = watch.phase(telemetry.PhaseCrossEncrypt, func() error {
		// Section 6: each source learns the shape of the opposite
		// polynomials, B of which is a function of |domactive(A)|.
		observeBuckets(s.Ledger, s.party(), "opposite", &cross)
		layout, err := newTupLayout(rel.Schema(), pq.JoinCols, pmTag(pq.SessionID, queryKey))
		if err != nil {
			return err
		}
		payloads := make([][]byte, len(groupsByKey))
		for i, g := range groupsByKey {
			if payloads[i], err = layout.encode(g.Tuples); err != nil {
				return err
			}
		}
		// The oblivious evaluations — Θ(max-load) homomorphic
		// multiply-adds plus a masking per value — dominate the sender's
		// cost; MaskedEvalBatch fans them out over the worker pool.
		evals.Evals, err = cross.MaskedEvalBatch(pk, roots, payloads, layout.aad)
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
	return mediator.Send(msgPMEvals, evals)
}

// mediatePM implements the mediator's role: forward the encrypted
// coefficients to the opposite source (step 4) and ship the n+m encrypted
// evaluations to the client (step 7). The mediator never decrypts
// anything; it only observes the bucket count and degree.
// seclint:entry mediator
func (m *Mediator) mediatePM(client, s1, s2 *link.Link, d *decomposition, watch *stopwatch) error {
	var c1, c2 pmCoeffs
	if err := s1.Recv(msgPMCoeffs, &c1); err != nil {
		return err
	}
	if err := s2.Recv(msgPMCoeffs, &c2); err != nil {
		return err
	}
	// Table 1: the mediator learns the shape of both sources' polynomials.
	observeBuckets(m.Ledger, leakage.PartyMediator, "R1.Ajoin", &c1.Buckets)
	observeBuckets(m.Ledger, leakage.PartyMediator, "R2.Ajoin", &c2.Buckets)

	if err := s1.Send(msgPMCross, c2.Buckets); err != nil {
		return err
	}
	if err := s2.Send(msgPMCross, c1.Buckets); err != nil {
		return err
	}
	var e1, e2 pmEvals
	if err := s1.Recv(msgPMEvals, &e1); err != nil {
		return err
	}
	if err := s2.Recv(msgPMEvals, &e2); err != nil {
		return err
	}
	return client.Send(msgPMResult, pmResult{
		Session: c1.Session,
		Schema1: c1.Schema, Schema2: c2.Schema,
		Evals1: e1.Evals, Evals2: e2.Evals,
	})
}

// pmTag is the tag of the AAD a PM tuple set is sealed under: the
// session and the query key X_c, which the source derived and the client
// holds, neither taking it from the mediator. X_c ties a blob to its
// query. Two queries' keys under one root differ by a public multiple of
// G, X_c2 = X_c1 + (h_c2 − h_c1)·G, so a mediator can move an
// evaluation from one query's key to the other's, and it decrypts to
// the same point; the blob it unlocks then fails its AEAD check.
func pmTag(session string, queryKey *ecdh.PublicKey) string {
	return "pm:" + session + string(hybrid.CompressPoint(queryKey))
}

// observeBuckets records what encrypted bucket polynomials show a party
// without the query key: the bucket count B = pm.BucketCount(n) of the
// active-domain size n, and the maximum bucket load L, the degree every
// bucket is padded to and the number of coefficients each ships.
func observeBuckets(l *leakage.Ledger, party, of string, b *pm.ECBuckets) {
	var maxLoad int64
	for _, p := range b.Polys {
		maxLoad = max(maxLoad, int64(len(p)))
	}
	l.Observe(party, "buckets("+of+")", int64(len(b.Polys)))
	l.Observe(party, "max-bucket-load("+of+")", maxLoad)
}

// pmSide is one opened side of the PM result: join key → tuple set.
type pmSide map[string][]relation.Tuple

// runPM implements the client's step 8: decrypt all n+m evaluations under
// the query key's scalar, open the blobs that match, match equal join
// keys across the two sides and cross-combine the tuple sets. The client
// resolves A_i from its own query q over the schemas the sources sealed
// under.
func (c *Client) runPM(mediator *link.Link, q *sqlparse.Query, queryKey *ecdh.PrivateKey, watch *stopwatch) (*relation.Relation, relation.Schema, []string, error) {
	var res pmResult
	if err := mediator.Recv(msgPMResult, &res); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	var joined *relation.Relation
	var joinCols1, joinCols2 []string
	err := watch.phase(telemetry.PhasePostFilter, func() error {
		if err := sealedFor(q, res.Schema1, res.Schema2); err != nil {
			return err
		}
		var err error
		if joinCols1, joinCols2, err = joinColumns(q, res.Schema1, res.Schema2); err != nil {
			return err
		}
		sk := ecelgamal.KeyFromECDH(queryKey)
		// Table 1: the client receives encrypted values of both partial
		// results (n+m of them) but can open only the matching ones.
		c.Ledger.Observe(leakage.PartyClient, "encrypted-values-received", int64(len(res.Evals1)+len(res.Evals2)))
		c.Ledger.UsePrimitive(leakage.PartyClient, "homomorphic-decryption", int64(len(res.Evals1)+len(res.Evals2)))

		layout1, layout2, err := joinLayouts(res.Schema1, res.Schema2, joinCols1, joinCols2, pmTag(res.Session, queryKey.PublicKey()))
		if err != nil {
			return err
		}
		side1, err := openPMSide(sk, res.Evals1, layout1)
		if err != nil {
			return err
		}
		side2, err := openPMSide(sk, res.Evals2, layout2)
		if err != nil {
			return err
		}
		schema, err := res.Schema1.Concat(res.Schema2)
		if err != nil {
			return err
		}
		joined = relation.New(schema)
		for key, ts1 := range side1 {
			if ts2, ok := side2[key]; ok {
				if err := appendCross(joined, ts1, ts2); err != nil {
					return err
				}
			}
		}
		c.Ledger.Observe(leakage.PartyClient, "result-tuples", int64(joined.Len()))
		return nil
	})
	if err != nil {
		return nil, relation.Schema{}, nil, err
	}
	return joined, res.Schema2, joinCols2, nil
}

// pmOpened is one evaluation after decryption: ok marks a match.
type pmOpened struct {
	payload []byte
	ok      bool
}

// openPMSide decrypts one source's evaluations and returns the matching
// tuple sets keyed by their rows' join key — the values a source hashed
// the root from, so equal keys on both sides are equal roots. A blob
// that does not open is a non-match; a ciphertext that is not two curve
// points, or a blob that opens to no tuple set or to an empty one, which
// no source seals, aborts the query.
func openPMSide(sk *ecelgamal.PrivateKey, evals []pm.Eval, layout tupLayout) (pmSide, error) {
	opened, err := parallel.Map(len(evals), 0, func(i int) (pmOpened, error) {
		payload, ok, err := pm.OpenEval(sk, evals[i], layout.aad)
		return pmOpened{payload, ok}, err
	})
	if err != nil {
		return nil, err
	}
	side := make(pmSide)
	for _, o := range opened {
		if !o.ok {
			continue // non-matching value: decrypts to a random point
		}
		tuples, err := layout.decode(o.payload)
		if err != nil {
			return nil, err
		}
		if len(tuples) == 0 {
			return nil, fmt.Errorf("pm: a tuple set of %s holds no rows", layout.schema.Relation)
		}
		side[layout.joinKey(tuples[0])] = tuples
	}
	return side, nil
}
