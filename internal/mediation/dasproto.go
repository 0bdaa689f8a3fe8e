package mediation

import (
	"crypto/ecdh"
	"errors"
	"fmt"
	"slices"

	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation/link"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
)

// dasPartial is a source's Listing 2 step 3 message: the encrypted
// relation R_i^S and the hybrid-encrypted index tables (sealed under the
// same session key, as the paper recommends).
type dasPartial struct {
	Session string
	Schema  relation.Schema
	// Columns names the indexed attributes, parallel to the index tables:
	// the join columns first, then any pushdown filter columns.
	Columns []string
	EncRel  das.EncryptedRelation
	// EncIndexTables is the sealed das.EncodeIndexTables of the index
	// tables.
	EncIndexTables []byte
}

// dasIndexTables is the mediator's step 4 message to the client. It
// carries no join columns: the client resolves A_1 and A_2 from its own
// query over the sealed schemas.
type dasIndexTables struct {
	Session          string
	Schema1, Schema2 relation.Schema
	// Cols1/Cols2 name all indexed attributes per side (join columns
	// first, then pushdown filter columns).
	Cols1, Cols2   []string
	Share1, Share2 []byte
	Enc1, Enc2     []byte
}

// dasResult is the mediator's step 6 message: R_C in semi-join-reduced
// form, the two tables of surviving sealed runs and |R_C|. The pairs stay
// at the mediator; the client rebuilds the join from the opened rows.
type dasResult struct {
	E1, E2 [][]byte
	Size   int
}

// serveDAS implements Listing 2 steps 1–3 at a datasource: partition the
// active domains of the join attributes, build index tables, encrypt the
// partial result DAS-style and the index tables under one hybrid session
// to the query key, and send everything to the mediator in one
// interaction.
func (s *Source) serveDAS(mediator *link.Link, pq *PartialQuery, rel *relation.Relation, queryKey *ecdh.PublicKey, watch *stopwatch) error {
	indexedCols := append(append([]string(nil), pq.JoinCols...), pq.FilterCols...)
	var out dasPartial
	err := watch.phase(telemetry.PhaseSourceEncrypt, func() error {
		its := make([]*das.IndexTable, len(indexedCols))
		for i, col := range indexedCols {
			dom, err := rel.ActiveDomain(col)
			if err != nil {
				return err
			}
			// An empty partial result has no active domain to partition:
			// its index table has no entries, so q_S admits no pair and
			// the join is empty, as in algebra.EquiJoin.
			var parts []das.Partition
			if len(dom) > 0 {
				parts, err = das.EquiDepthPartitions(dom, pq.Params.Partitions)
				if err != nil {
					return err
				}
			}
			s.Ledger.UsePrimitive(s.party(), "collision-free-hash", int64(len(parts)))
			it, err := das.BuildIndexTable(col, parts)
			if err != nil {
				return err
			}
			its[i] = it
		}
		sess, err := hybrid.NewSessionECDH(queryKey)
		if err != nil {
			return err
		}
		encRel, err := das.SealRelation(rel, indexedCols, its, sess, 0)
		if err != nil {
			return err
		}
		s.Ledger.UsePrimitive(s.party(), "hybrid-encryption", int64(len(encRel.Runs)+1))
		itBlob, err := das.EncodeIndexTables(its)
		if err != nil {
			return err
		}
		sealed, err := sess.Seal(itBlob, rel.Schema().AAD("das:itable:"+pq.SessionID))
		if err != nil {
			return err
		}
		out = dasPartial{Session: pq.SessionID, Schema: rel.Schema(), Columns: indexedCols, EncRel: *encRel, EncIndexTables: sealed.Marshal()}
		return nil
	})
	if err != nil {
		return err
	}
	return mediator.Send(msgDASPartial, out)
}

// mediateDAS implements the mediator's role: forward the encrypted index
// tables to the client (step 4), receive the server query (step 5),
// evaluate it over the encrypted partial results and return R_C (step 6)
// as its surviving runs and its size: R_C is counted, never listed.
// seclint:entry mediator
func (m *Mediator) mediateDAS(client, s1, s2 *link.Link, d *decomposition, watch *stopwatch) error {
	var p1, p2 dasPartial
	if err := s1.Recv(msgDASPartial, &p1); err != nil {
		return err
	}
	if err := s2.Recv(msgDASPartial, &p2); err != nil {
		return err
	}
	// Table 1: the mediator learns the partial result cardinalities.
	m.Ledger.Observe(leakage.PartyMediator, "|R1|", int64(p1.EncRel.Len()))
	m.Ledger.Observe(leakage.PartyMediator, "|R2|", int64(p2.EncRel.Len()))

	if err := client.Send(msgDASIndexTables, dasIndexTables{
		Session: p1.Session,
		Schema1: p1.Schema, Schema2: p2.Schema,
		Cols1: p1.Columns, Cols2: p2.Columns,
		Share1: p1.EncRel.KeyShare, Share2: p2.EncRel.KeyShare,
		Enc1: p1.EncIndexTables, Enc2: p2.EncIndexTables,
	}); err != nil {
		return err
	}
	var sq das.ServerQuery
	if err := client.Recv(msgDASServerQuery, &sq); err != nil {
		return err
	}
	if n := len(sq.Filters1) + len(sq.Filters2); n > 0 {
		// Pushdown leaks predicate-satisfaction patterns to the mediator.
		m.Ledger.Observe(leakage.PartyMediator, "pushdown-filters", int64(n))
	}
	var res *das.ServerResult
	err := watch.phase(telemetry.PhaseMatch, func() error {
		var err error
		res, err = das.SelectRuns(&p1.EncRel, &p2.EncRel, sq)
		return err
	})
	if err != nil {
		return err
	}
	// Table 1: the mediator learns |R_C|, an upper bound of the global
	// result size.
	m.Ledger.Observe(leakage.PartyMediator, "|RC|", int64(res.Size))
	return client.Send(msgDASResult, dasResult{E1: res.E1, E2: res.E2, Size: res.Size})
}

// runDAS implements the client side (Listing 2 steps 5 and 7): decrypt the
// index tables, act as the DAS query translator (build q_S and q_C), send
// q_S, then decrypt R_C and apply q_C.
func (c *Client) runDAS(mediator *link.Link, q *sqlparse.Query, queryKey *ecdh.PrivateKey, params Params, watch *stopwatch) (*relation.Relation, relation.Schema, []string, error) {
	var its dasIndexTables
	if err := mediator.Recv(msgDASIndexTables, &its); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	var recv1, recv2 *hybrid.Receiver
	var tables1, tables2 []*das.IndexTable
	var joinCols1, joinCols2 []string
	var sq das.ServerQuery
	err := watch.phase(telemetry.PhaseTranslate, func() error {
		var err error
		if joinCols1, joinCols2, err = joinColumns(q, its.Schema1, its.Schema2); err != nil {
			return mediator.Blame(err)
		}
		recv1, err = hybrid.NewReceiverECDH(queryKey, its.Share1)
		if err != nil {
			return err
		}
		recv2, err = hybrid.NewReceiverECDH(queryKey, its.Share2)
		if err != nil {
			return err
		}
		tables1, err = openIndexTables(recv1, its.Enc1, its.Session, its.Schema1)
		if err != nil {
			return err
		}
		tables2, err = openIndexTables(recv2, its.Enc2, its.Session, its.Schema2)
		if err != nil {
			return err
		}
		// Table 1: the client sees both index tables (partition ranges).
		c.Ledger.Observe(leakage.PartyClient, "index-table-partitions",
			int64(len(tables1[0].Entries)+len(tables2[0].Entries)))
		// The join pairs are built from the join-column tables only; the
		// remaining tables cover pushdown filter columns. The relayed
		// column lists must name the sealed tables and begin with A_i.
		if err := indexedAs(its.Cols1, tables1, joinCols1); err != nil {
			return mediator.Blame(err)
		}
		if err := indexedAs(its.Cols2, tables2, joinCols2); err != nil {
			return mediator.Blame(err)
		}
		nJoin := len(joinCols1)
		sq, err = das.BuildServerQuery(tables1[:nJoin], tables2[:nJoin])
		if err != nil {
			return err
		}
		if params.Pushdown {
			// Selection pushdown (extension): translate pushable WHERE
			// conjuncts into allowed-index filters over every indexed
			// column.
			sq.Filters1 = buildIndexFilters(extractPushdown(q.Where, its.Schema1), its.Cols1, tables1)
			sq.Filters2 = buildIndexFilters(extractPushdown(q.Where, its.Schema2), its.Cols2, tables2)
		}
		return nil
	})
	if err != nil {
		return nil, relation.Schema{}, nil, err
	}
	if err := mediator.Send(msgDASServerQuery, sq); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	var res dasResult
	if err := mediator.Recv(msgDASResult, &res); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	var joined *relation.Relation
	err = watch.phase(telemetry.PhasePostFilter, func() error {
		var discarded int
		var err error
		joined, discarded, err = das.DecryptServerResult(&das.ServerResult{E1: res.E1, E2: res.E2, Size: res.Size},
			recv1, recv2, its.Schema1, its.Schema2, joinCols1, joinCols2, 0)
		if errors.Is(err, das.ErrInconsistentResult) {
			return mediator.Blame(err)
		}
		if err != nil {
			return err
		}
		c.Ledger.UsePrimitive(leakage.PartyClient, "hybrid-decryption", int64(len(res.E1)+len(res.E2)))
		// Table 1: the client receives a superset of the global result,
		// as its runs and its size.
		c.Ledger.Observe(leakage.PartyClient, "superset-size", int64(res.Size))
		c.Ledger.Observe(leakage.PartyClient, "false-positives-discarded", int64(discarded))
		return nil
	})
	if err != nil {
		return nil, relation.Schema{}, nil, err
	}
	return joined, its.Schema2, joinCols2, nil
}

// indexedAs checks that cols names the index tables a source sealed, in
// order, and begins with the join columns.
func indexedAs(cols []string, tables []*das.IndexTable, joinCols []string) error {
	if len(cols) != len(tables) {
		return fmt.Errorf("mediation: %d indexed columns %v for %d sealed index tables", len(cols), cols, len(tables))
	}
	if len(cols) < len(joinCols) || !slices.Equal(cols[:len(joinCols)], joinCols) {
		return fmt.Errorf("mediation: indexed columns %v do not begin with the join columns %v", cols, joinCols)
	}
	for i, t := range tables {
		if t.Attribute != cols[i] {
			return fmt.Errorf("mediation: index table %d covers %q, not %q", i, t.Attribute, cols[i])
		}
	}
	return nil
}

// buildIndexFilters maps pushable conditions onto the indexed columns.
// Conditions on un-indexed columns stay client-side (postProcess applies
// the full WHERE regardless).
func buildIndexFilters(conds []pushCondition, cols []string, tables []*das.IndexTable) []das.IndexFilter {
	var out []das.IndexFilter
	for _, cond := range conds {
		for i, col := range cols {
			if col == cond.Column && i < len(tables) {
				out = append(out, das.IndexFilter{Attr: i, Allowed: tables[i].AllowedIndexes(cond.Op, cond.Bound)})
				break
			}
		}
	}
	return out
}

func openIndexTables(recv *hybrid.Receiver, blob []byte, session string, schema relation.Schema) ([]*das.IndexTable, error) {
	ct, err := hybrid.UnmarshalCiphertext(blob)
	if err != nil {
		return nil, err
	}
	pt, err := recv.Open(ct, schema.AAD("das:itable:"+session))
	if err != nil {
		return nil, err
	}
	tables, err := das.DecodeIndexTables(pt)
	if err != nil {
		return nil, err
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("mediation: empty index table list from %s", schema.Relation)
	}
	return tables, nil
}
