package mediation

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"

	"github.com/secmediation/secmediation/internal/crypto/commutative"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation/link"
	"github.com/secmediation/secmediation/internal/parallel"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
)

// commItem is one message component ⟨f_e(h(a)), encrypt(Tup(a))⟩ of a
// source's offer.
type commItem struct {
	// Hash is f_e(h(a)): a commutative.ElementSize-byte group element.
	Hash []byte
	// Payload is encrypt(Tup(a)) — the sealed tuple set, with a written
	// once (tupLayout). The mediator keeps it and relays it to the
	// client only (footnote 1).
	Payload []byte
}

// commOffer is a source's step 3 message M_i.
type commOffer struct {
	Session  string
	Schema   relation.Schema
	KeyShare []byte
	Items    []commItem
}

// commCross carries the opposite offer's elements f_ej(h(a)) in the
// offer's order (step 4), and commCrossBack the same elements
// re-encrypted, f_ei(f_ej(h(a))), in the same order (steps 5/6).
type commCross struct {
	Elems [][]byte
}

// commPair is one result message ⟨encrypt(Tup1(a)), encrypt(Tup2(a))⟩.
type commPair struct {
	T1, T2 []byte
}

// commResult is the mediator's step 7 message to the client. It carries
// no A_i: the client resolves them from its own query.
type commResult struct {
	Session          string
	Schema1, Schema2 relation.Schema
	Share1, Share2   []byte
	Pairs            []commPair
}

// serveCommutative implements a datasource's role in Listing 3: generate a
// fresh commutative key, hash and encrypt every active-domain value of the
// join attributes (composite keys supported), encrypt the tuple sets for
// the client, ship the shuffled message set, then re-encrypt the opposite
// source's hash values when they come back through the mediator.
func (s *Source) serveCommutative(mediator *link.Link, pq *PartialQuery, rel *relation.Relation, queryKey *ecdh.PublicKey, watch *stopwatch) error {
	var offer commOffer
	var key *commutative.CurveKey
	err := watch.phase(telemetry.PhaseSourceEncrypt, func() error {
		var err error
		key, err = commutative.GenerateCurveKey(rand.Reader)
		if err != nil {
			return err
		}
		groupsByKey, err := rel.GroupByColumns(pq.JoinCols)
		if err != nil {
			return err
		}
		sess, err := hybrid.NewSessionECDH(queryKey)
		if err != nil {
			return err
		}
		offer = commOffer{Session: pq.SessionID, Schema: rel.Schema(), KeyShare: sess.Share()}
		layout, err := newTupLayout(rel.Schema(), pq.JoinCols, "comm:"+pq.SessionID)
		if err != nil {
			return err
		}
		// The per-value hash+encrypt+seal work is the protocol's dominant
		// cost (one scalar multiplication per active-domain value); fan it
		// out over the worker pool. Map preallocates the full item slice
		// and writes by index, so the transcript order is worker-count
		// independent.
		offer.Items, err = parallel.Map(len(groupsByKey), 0, func(i int) (commItem, error) {
			g := groupsByKey[i]
			c, err := key.HashApply(pq.SessionID, relation.EncodeValues(g.Key, nil))
			if err != nil {
				return commItem{}, err
			}
			set, err := layout.encode(g.Tuples)
			if err != nil {
				return commItem{}, err
			}
			sealed, err := sess.Seal(set, layout.aad)
			if err != nil {
				return commItem{}, err
			}
			return commItem{Hash: c, Payload: sealed.Marshal()}, nil
		})
		if err != nil {
			return err
		}
		s.Ledger.UsePrimitive(s.party(), "ideal-hash", int64(len(offer.Items)))
		s.Ledger.UsePrimitive(s.party(), "commutative-encryption", int64(len(offer.Items)))
		s.Ledger.UsePrimitive(s.party(), "hybrid-encryption", int64(len(offer.Items)))
		// Step 3: "arbitrarily ordered" — shuffle so positions leak nothing.
		return shuffleSlice(offer.Items)
	})
	if err != nil {
		return err
	}
	if err := mediator.Send(msgCommOffer, offer); err != nil {
		return err
	}

	// Steps 4–6: re-encrypt the opposite source's elements in place.
	var cross commCross
	if err := mediator.Recv(msgCommCross, &cross); err != nil {
		return err
	}
	var back commCross
	err = watch.phase(telemetry.PhaseCrossEncrypt, func() error {
		// Both sources learn the opposite active-domain size (Section 6).
		s.Ledger.Observe(s.party(), "|domactive(opposite)|", int64(len(cross.Elems)))
		// The second layer. These elements crossed two links: Apply
		// validates each one before the key touches it.
		var err error
		back.Elems, err = parallel.Map(len(cross.Elems), 0, func(i int) ([]byte, error) {
			return key.Apply(cross.Elems[i])
		})
		if err != nil {
			return err
		}
		s.Ledger.UsePrimitive(s.party(), "commutative-encryption", int64(len(cross.Elems)))
		return nil
	})
	if err != nil {
		return err
	}
	return mediator.Send(msgCommCrossBack, back)
}

// mediateCommutative implements the mediator's role: keep both offers'
// tuple sets (footnote 1), send each source the opposite offer's
// elements (step 4), then pair every doubly-encrypted element with its
// tuple set by position, match identical ones and assemble the result
// messages (step 7).
// seclint:entry mediator
func (m *Mediator) mediateCommutative(client, s1, s2 *link.Link, d *decomposition, watch *stopwatch) error {
	var o1, o2 commOffer
	if err := s1.Recv(msgCommOffer, &o1); err != nil {
		return err
	}
	if err := s2.Recv(msgCommOffer, &o2); err != nil {
		return err
	}
	// Table 1: the mediator learns both active-domain sizes.
	m.Ledger.Observe(leakage.PartyMediator, "|domactive(R1.Ajoin)|", int64(len(o1.Items)))
	m.Ledger.Observe(leakage.PartyMediator, "|domactive(R2.Ajoin)|", int64(len(o2.Items)))

	// Step 4: each source gets the opposite offer's elements only.
	if err := s1.Send(msgCommCross, elements(o2.Items)); err != nil {
		return err
	}
	if err := s2.Send(msgCommCross, elements(o1.Items)); err != nil {
		return err
	}
	var b1, b2 commCross
	if err := s1.Recv(msgCommCrossBack, &b1); err != nil {
		return err
	}
	if err := s2.Recv(msgCommCrossBack, &b2); err != nil {
		return err
	}

	// Step 7: match identical doubly-encrypted elements. b2[i] is S2's
	// layer over o1.Items[i], b1[i] is S1's over o2.Items[i].
	res := commResult{
		Session: o1.Session,
		Schema1: o1.Schema, Schema2: o2.Schema,
		Share1: o1.KeyShare, Share2: o2.KeyShare,
	}
	err := watch.phase(telemetry.PhaseMatch, func() error {
		if err := checkCrossBack(s1, b1, len(o2.Items)); err != nil {
			return err
		}
		if err := checkCrossBack(s2, b2, len(o1.Items)); err != nil {
			return err
		}
		tup1ByHash := make(map[string][]byte, len(b2.Elems))
		for i, h := range b2.Elems {
			tup1ByHash[string(h)] = o1.Items[i].Payload
		}
		for i, h := range b1.Elems {
			if t1, ok := tup1ByHash[string(h)]; ok {
				res.Pairs = append(res.Pairs, commPair{T1: t1, T2: o2.Items[i].Payload})
			}
		}
		// Table 1: the mediator learns the intersection size, a lower
		// bound of the global result size.
		m.Ledger.Observe(leakage.PartyMediator, "|domactive(R1) ∩ domactive(R2)|", int64(len(res.Pairs)))
		return nil
	})
	if err != nil {
		return err
	}
	return client.Send(msgCommResult, res)
}

// checkCrossBack checks that src returned one element per element it
// was sent, so that positions pair up; a source that did not is blamed.
func checkCrossBack(src *link.Link, back commCross, sent int) error {
	if len(back.Elems) != sent {
		return &ProtocolError{Party: src.Peer(), Phase: telemetry.PhaseMatch,
			Err: fmt.Errorf("comm: %d elements back for %d sent", len(back.Elems), sent)}
	}
	return nil
}

// elements is the step 4 message of an offer: its elements in order.
func elements(items []commItem) commCross {
	c := commCross{Elems: make([][]byte, len(items))}
	for i, it := range items {
		c.Elems[i] = it.Hash
	}
	return c
}

// runCommutative implements the client's step 8: decrypt the matched tuple
// sets and construct the result tuples (a cross product per matched join
// value). The client resolves A_i from its own query q over the schemas
// the sources sealed under.
func (c *Client) runCommutative(mediator *link.Link, q *sqlparse.Query, queryKey *ecdh.PrivateKey, watch *stopwatch) (*relation.Relation, relation.Schema, []string, error) {
	var res commResult
	if err := mediator.Recv(msgCommResult, &res); err != nil {
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
		recv1, err := hybrid.NewReceiverECDH(queryKey, res.Share1)
		if err != nil {
			return err
		}
		recv2, err := hybrid.NewReceiverECDH(queryKey, res.Share2)
		if err != nil {
			return err
		}
		schema, err := res.Schema1.Concat(res.Schema2)
		if err != nil {
			return err
		}
		joined = relation.New(schema)
		layout1, layout2, err := joinLayouts(res.Schema1, res.Schema2, joinCols1, joinCols2, "comm:"+res.Session)
		if err != nil {
			return err
		}
		// Open both tuple sets of every matched pair in parallel; the
		// cross products append into the shared relation sequentially in
		// pair order, keeping the result deterministic.
		type pairSets struct{ ts1, ts2 []relation.Tuple }
		opened, err := parallel.Map(len(res.Pairs), 0, func(i int) (pairSets, error) {
			ts1, err := openTupleSet(recv1, res.Pairs[i].T1, layout1)
			if err != nil {
				return pairSets{}, err
			}
			ts2, err := openTupleSet(recv2, res.Pairs[i].T2, layout2)
			if err != nil {
				return pairSets{}, err
			}
			return pairSets{ts1: ts1, ts2: ts2}, nil
		})
		if err != nil {
			return err
		}
		// A pair holds Tup1(a) and Tup2(a) of one a, and no a comes twice:
		// a mediator that swaps or replays sets is caught here.
		seen := make(map[string]bool, len(opened))
		for _, p := range opened {
			ts1, ts2 := p.ts1, p.ts2
			if len(ts1) == 0 || len(ts2) == 0 {
				return errors.New("comm: a relayed pair holds an empty tuple set")
			}
			key := layout1.joinKey(ts1[0])
			if layout2.joinKey(ts2[0]) != key {
				return errors.New("comm: a relayed pair joins two different keys")
			}
			if seen[key] {
				return errors.New("comm: a join key is relayed in two pairs")
			}
			seen[key] = true
			if err := appendCross(joined, ts1, ts2); err != nil {
				return err
			}
		}
		c.Ledger.UsePrimitive(leakage.PartyClient, "hybrid-decryption", int64(2*len(res.Pairs)))
		// Table 1: the client receives only the exact global result.
		c.Ledger.Observe(leakage.PartyClient, "result-tuples", int64(joined.Len()))
		return nil
	})
	if err != nil {
		return nil, relation.Schema{}, nil, err
	}
	return joined, res.Schema2, joinCols2, nil
}

// appendCross appends to r the cross product ts1 × ts2 of the tuple sets
// one join key matched on both sides, each row t1 ‖ t2.
func appendCross(r *relation.Relation, ts1, ts2 []relation.Tuple) error {
	for _, t1 := range ts1 {
		for _, t2 := range ts2 {
			t := make(relation.Tuple, 0, len(t1)+len(t2))
			t = append(t, t1...)
			t = append(t, t2...)
			if err := r.Append(t); err != nil {
				return err
			}
		}
	}
	return nil
}

func openTupleSet(recv *hybrid.Receiver, blob []byte, layout tupLayout) ([]relation.Tuple, error) {
	ct, err := hybrid.UnmarshalCiphertext(blob)
	if err != nil {
		return nil, err
	}
	pt, err := recv.Open(ct, layout.aad)
	if err != nil {
		return nil, err
	}
	return layout.decode(pt)
}
