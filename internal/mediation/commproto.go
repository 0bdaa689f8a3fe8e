package mediation

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"

	"github.com/secmediation/secmediation/internal/crypto/commutative"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/parallel"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// commItem is one message component ⟨f_e(h(a)), encrypt(Tup(a))⟩. In the
// footnote-1 ID mode the mediator strips Payload before forwarding and
// sets ID so the opposite source handles fixed-length items only.
type commItem struct {
	// Hash is f_e(h(a)) (after step 3) or f_e1(f_e2(h(a))) (after the
	// cross-encryption steps 5/6): a commutative.ElementSize-byte group
	// element.
	Hash []byte
	// Payload is encrypt(Tup(a)) — the sealed, gob-encoded tuple set.
	Payload []byte
	// ID replaces Payload between mediator and opposite source in ID mode.
	ID uint64
}

// commOffer is a source's step 3 message M_i.
type commOffer struct {
	Session    string
	Schema     relation.Schema
	WrappedKey []byte
	Items      []commItem
}

// commCross carries the opposite source's items (step 4), and commCrossBack
// the re-encrypted ones (steps 5/6).
type commCross struct {
	Items []commItem
}

// commPair is one result message ⟨encrypt(Tup1(a)), encrypt(Tup2(a))⟩.
type commPair struct {
	T1, T2 []byte
}

// commResult is the mediator's step 7 message to the client.
type commResult struct {
	Session              string
	Schema1, Schema2     relation.Schema
	JoinCols1, JoinCols2 []string
	Wrapped1, Wrapped2   []byte
	Pairs                []commPair
}

// serveCommutative implements a datasource's role in Listing 3: generate a
// fresh commutative key, hash and encrypt every active-domain value of the
// join attributes (composite keys supported), encrypt the tuple sets for
// the client, ship the shuffled message set, then re-encrypt the opposite
// source's hash values when they come back through the mediator.
func (s *Source) serveCommutative(conn transport.Conn, pq *PartialQuery, rel *relation.Relation, clientKey *rsa.PublicKey, watch *stopwatch) error {
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
		sess, err := hybrid.NewSession(clientKey)
		if err != nil {
			return err
		}
		offer = commOffer{Session: pq.SessionID, Schema: rel.Schema(), WrappedKey: sess.WrappedKey()}
		aad := []byte("comm:" + pq.SessionID + ":" + rel.Schema().Relation)
		// The per-value hash+encrypt+seal work is the protocol's dominant
		// cost (one scalar multiplication per active-domain value); fan it
		// out over the worker pool. Map preallocates the full item slice
		// and writes by index, so the transcript order is worker-count
		// independent.
		offer.Items, err = parallel.Map(len(groupsByKey), pq.Params.Workers, func(i int) (commItem, error) {
			g := groupsByKey[i]
			c, err := key.Apply(commutative.HashToElement(pq.SessionID, relation.EncodeValues(g.Key, nil)))
			if err != nil {
				return commItem{}, err
			}
			sealed, err := sess.Seal(relation.EncodeTupleSet(g.Tuples), aad)
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
		return shuffleItems(offer.Items)
	})
	if err != nil {
		return err
	}
	if err := sendMsg(conn, "mediator", msgCommOffer, offer); err != nil {
		return err
	}

	// Steps 4–6: re-encrypt the opposite source's hash values.
	var cross commCross
	if err := recvInto(conn, "mediator", msgCommCross, &cross); err != nil {
		return err
	}
	var back commCross
	err = watch.phase(telemetry.PhaseCrossEncrypt, func() error {
		// Both sources learn the opposite active-domain size (Section 6).
		s.Ledger.Observe(s.party(), "|domactive(opposite)|", int64(len(cross.Items)))
		// The second layer. These elements crossed two links: Apply
		// validates each one before the key touches it.
		var err error
		back.Items, err = parallel.Map(len(cross.Items), pq.Params.Workers, func(i int) (commItem, error) {
			it := cross.Items[i]
			doubled, err := key.Apply(it.Hash)
			if err != nil {
				return commItem{}, err
			}
			return commItem{Hash: doubled, Payload: it.Payload, ID: it.ID}, nil
		})
		if err != nil {
			return err
		}
		s.Ledger.UsePrimitive(s.party(), "commutative-encryption", int64(len(cross.Items)))
		return shuffleItems(back.Items)
	})
	if err != nil {
		return err
	}
	return sendMsg(conn, "mediator", msgCommCrossBack, back)
}

// mediateCommutative implements the mediator's role: exchange the message
// sets between the sources (step 4; in ID mode retaining the encrypted
// tuple sets per footnote 1), then match doubly-encrypted hash values and
// assemble the result messages (step 7).
// seclint:entry mediator
func (m *Mediator) mediateCommutative(client, s1, s2 transport.Conn, d *decomposition, params Params, watch *stopwatch) error {
	var o1, o2 commOffer
	if err := recvInto(s1, "source:"+d.rel1, msgCommOffer, &o1); err != nil {
		return err
	}
	if err := recvInto(s2, "source:"+d.rel2, msgCommOffer, &o2); err != nil {
		return err
	}
	// Table 1: the mediator learns both active-domain sizes.
	m.Ledger.Observe(leakage.PartyMediator, "|domactive(R1.Ajoin)|", int64(len(o1.Items)))
	m.Ledger.Observe(leakage.PartyMediator, "|domactive(R2.Ajoin)|", int64(len(o2.Items)))

	// Step 4: forward each offer to the opposite source.
	var store1, store2 map[uint64][]byte
	cross1, cross2 := commCross{Items: o2.Items}, commCross{Items: o1.Items}
	if params.IDMode {
		// Footnote 1: keep the payloads here; circulate fixed-length IDs.
		store1, cross2.Items = stripPayloads(o1.Items)
		store2, cross1.Items = stripPayloads(o2.Items)
	}
	if err := sendMsg(s1, "source:"+d.rel1, msgCommCross, cross1); err != nil {
		return err
	}
	if err := sendMsg(s2, "source:"+d.rel2, msgCommCross, cross2); err != nil {
		return err
	}
	var b1, b2 commCross
	if err := recvInto(s1, "source:"+d.rel1, msgCommCrossBack, &b1); err != nil {
		return err
	}
	if err := recvInto(s2, "source:"+d.rel2, msgCommCrossBack, &b2); err != nil {
		return err
	}

	// Step 7: match identical first components. b2 carries R1's tuple
	// sets (S2 re-encrypted S1's hashes), b1 carries R2's.
	res := commResult{
		Session: o1.Session,
		Schema1: o1.Schema, Schema2: o2.Schema,
		JoinCols1: d.joinCols1, JoinCols2: d.joinCols2,
		Wrapped1: o1.WrappedKey, Wrapped2: o2.WrappedKey,
	}
	err := watch.phase(telemetry.PhaseMatch, func() error {
		tup1ByHash := make(map[string][]byte, len(b2.Items))
		for _, it := range b2.Items {
			payload := it.Payload
			if params.IDMode {
				var ok bool
				payload, ok = store1[it.ID]
				if !ok {
					return fmt.Errorf("comm: unknown ID %d from S2", it.ID)
				}
			}
			tup1ByHash[string(it.Hash)] = payload
		}
		for _, it := range b1.Items {
			t1, ok := tup1ByHash[string(it.Hash)]
			if !ok {
				continue
			}
			t2 := it.Payload
			if params.IDMode {
				t2, ok = store2[it.ID]
				if !ok {
					return fmt.Errorf("comm: unknown ID %d from S1", it.ID)
				}
			}
			res.Pairs = append(res.Pairs, commPair{T1: t1, T2: t2})
		}
		// Table 1: the mediator learns the intersection size, a lower
		// bound of the global result size.
		m.Ledger.Observe(leakage.PartyMediator, "|domactive(R1) ∩ domactive(R2)|", int64(len(res.Pairs)))
		return nil
	})
	if err != nil {
		return err
	}
	return sendMsg(client, "client", msgCommResult, res)
}

// runCommutative implements the client's step 8: decrypt the matched tuple
// sets and construct the result tuples (a cross product per matched join
// value).
func (c *Client) runCommutative(conn transport.Conn, params Params, watch *stopwatch) (*relation.Relation, relation.Schema, []string, error) {
	var res commResult
	if err := recvInto(conn, "mediator", msgCommResult, &res); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	var joined *relation.Relation
	err := watch.phase(telemetry.PhasePostFilter, func() error {
		recv1, err := hybrid.NewReceiver(c.PrivateKey, res.Wrapped1)
		if err != nil {
			return err
		}
		recv2, err := hybrid.NewReceiver(c.PrivateKey, res.Wrapped2)
		if err != nil {
			return err
		}
		schema, err := res.Schema1.Concat(res.Schema2)
		if err != nil {
			return err
		}
		joined = relation.New(schema)
		aad1 := []byte("comm:" + res.Session + ":" + res.Schema1.Relation)
		aad2 := []byte("comm:" + res.Session + ":" + res.Schema2.Relation)
		// Open both tuple sets of every matched pair in parallel; the
		// cross products append into the shared relation sequentially in
		// pair order, keeping the result deterministic.
		type pairSets struct{ ts1, ts2 []relation.Tuple }
		opened, err := parallel.Map(len(res.Pairs), params.Workers, func(i int) (pairSets, error) {
			ts1, err := openTupleSet(recv1, res.Pairs[i].T1, aad1, res.Schema1)
			if err != nil {
				return pairSets{}, err
			}
			ts2, err := openTupleSet(recv2, res.Pairs[i].T2, aad2, res.Schema2)
			if err != nil {
				return pairSets{}, err
			}
			return pairSets{ts1: ts1, ts2: ts2}, nil
		})
		if err != nil {
			return err
		}
		for _, p := range opened {
			ts1, ts2 := p.ts1, p.ts2
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
		c.Ledger.UsePrimitive(leakage.PartyClient, "hybrid-decryption", int64(2*len(res.Pairs)))
		// Table 1: the client receives only the exact global result.
		c.Ledger.Observe(leakage.PartyClient, "result-tuples", int64(joined.Len()))
		return nil
	})
	if err != nil {
		return nil, relation.Schema{}, nil, err
	}
	return joined, res.Schema2, res.JoinCols2, nil
}

func openTupleSet(recv *hybrid.Receiver, blob, aad []byte, schema relation.Schema) ([]relation.Tuple, error) {
	ct, err := hybrid.UnmarshalCiphertext(blob)
	if err != nil {
		return nil, err
	}
	pt, err := recv.Open(ct, aad)
	if err != nil {
		return nil, err
	}
	return relation.DecodeTupleSet(schema, pt)
}

// stripPayloads implements footnote 1: replace payloads with fresh IDs and
// return the retention map.
func stripPayloads(items []commItem) (map[uint64][]byte, []commItem) {
	store := make(map[uint64][]byte, len(items))
	out := make([]commItem, len(items))
	var next uint64
	for i, it := range items {
		next++
		store[next] = it.Payload
		out[i] = commItem{Hash: it.Hash, ID: next}
	}
	return store, out
}

// shuffleItems applies a cryptographic Fisher-Yates shuffle, realizing the
// paper's "arbitrarily ordered set of messages" (see shuffle.go for the
// buffered randomness source).
func shuffleItems(items []commItem) error { return shuffleSlice(items) }

// CommutativeIntersection runs Agrawal et al.'s two-party intersection
// protocol shape directly (the operation the paper's Section 4 cites
// alongside the join): both parties hash and singly encrypt their value
// sets, cross-encrypt each other's, and the receiver learns exactly which
// of its values lie in the intersection — nothing else. Exposed for the
// ext-intersection experiment. workers sizes the worker pool for the two
// double-encryption loops (see parallel.Resolve).
func CommutativeIntersection(label string, receiver, sender []relation.Value, workers int) ([]relation.Value, error) {
	kR, err := commutative.GenerateCurveKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	kS, err := commutative.GenerateCurveKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	// Each value costs two scalar multiplications (first layer + cross
	// layer), fanned out over the pool.
	double := func(vals []relation.Value, first, second *commutative.CurveKey) ([]string, error) {
		return parallel.Map(len(vals), workers, func(i int) (string, error) {
			layer1, err := first.Apply(commutative.HashToElement(label, vals[i].Encode(nil)))
			if err != nil {
				return "", err
			}
			layer2, err := second.Apply(layer1)
			return string(layer2), err
		})
	}
	// Sender: f_s(h(u)) for its values, shared with receiver, who
	// re-encrypts to f_r(f_s(h(u))).
	senderKeys, err := double(sender, kS, kR)
	if err != nil {
		return nil, err
	}
	senderDouble := make(map[string]bool, len(senderKeys))
	for _, k := range senderKeys {
		senderDouble[k] = true
	}
	// Receiver: f_r(h(v)), sender re-encrypts to f_s(f_r(h(v))); the
	// receiver matches against the sender's doubly-encrypted set.
	receiverKeys, err := double(receiver, kR, kS)
	if err != nil {
		return nil, err
	}
	var out []relation.Value
	for i, v := range receiver {
		if senderDouble[receiverKeys[i]] {
			out = append(out, v)
		}
	}
	return out, nil
}
