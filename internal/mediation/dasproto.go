package mediation

import (
	"crypto/rsa"
	"fmt"

	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
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
	// EncIndexTables is the sealed gob of []*das.IndexTable.
	EncIndexTables []byte
}

// dasIndexTables is the mediator's step 4 message to the client.
type dasIndexTables struct {
	Session              string
	Schema1, Schema2     relation.Schema
	JoinCols1, JoinCols2 []string
	// Cols1/Cols2 name all indexed attributes per side (join columns
	// first, then pushdown filter columns).
	Cols1, Cols2       []string
	Wrapped1, Wrapped2 []byte
	Enc1, Enc2         []byte
}

// dasServerQuery is the client's step 5 message: q_S.
type dasServerQuery struct {
	Query das.ServerQuery
}

// dasResult is the mediator's step 6 message: R_C, as two etuple tables
// and the slot pairs over them.
type dasResult struct {
	Result das.ServerResult
}

// serveDAS implements Listing 2 steps 1–3 at a datasource: partition the
// active domains of the join attributes, build index tables, encrypt the
// partial result DAS-style and the index tables with the client's keys,
// and send everything to the mediator in one interaction.
func (s *Source) serveDAS(conn transport.Conn, pq *PartialQuery, rel *relation.Relation, clientKey *rsa.PublicKey, watch *stopwatch) error {
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
				strategy := pq.Params.Strategy
				if strategy == das.EquiWidth && dom[0].Kind() != relation.KindInt {
					strategy = das.EquiDepth // equi-width is INT-only; degrade gracefully
				}
				parts, err = das.PartitionDomain(dom, pq.Params.Partitions, strategy)
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
		encRel, sess, err := das.EncryptRelation(rel, indexedCols, its, clientKey, pq.Params.Workers)
		if err != nil {
			return err
		}
		s.Ledger.UsePrimitive(s.party(), "hybrid-encryption", int64(rel.Len()+1))
		itBlob, err := transport.Encode(its)
		if err != nil {
			return err
		}
		sealed, err := sess.Seal(itBlob, []byte("das:itable:"+pq.SessionID+":"+pq.Relation))
		if err != nil {
			return err
		}
		out = dasPartial{Session: pq.SessionID, Schema: rel.Schema(), Columns: indexedCols, EncRel: *encRel, EncIndexTables: sealed.Marshal()}
		return nil
	})
	if err != nil {
		return err
	}
	return sendMsg(conn, "mediator", msgDASPartial, out)
}

// mediateDAS implements the mediator's role: forward the encrypted index
// tables to the client (step 4), receive the server query (step 5),
// evaluate it over the encrypted partial results and return R_C (step 6).
// seclint:entry mediator
func (m *Mediator) mediateDAS(client, s1, s2 transport.Conn, d *decomposition, watch *stopwatch) error {
	var p1, p2 dasPartial
	if err := recvInto(s1, "source:"+d.rel1, msgDASPartial, &p1); err != nil {
		return err
	}
	if err := recvInto(s2, "source:"+d.rel2, msgDASPartial, &p2); err != nil {
		return err
	}
	// Table 1: the mediator learns the partial result cardinalities.
	m.Ledger.Observe(leakage.PartyMediator, "|R1|", int64(p1.EncRel.Len()))
	m.Ledger.Observe(leakage.PartyMediator, "|R2|", int64(p2.EncRel.Len()))

	if err := sendMsg(client, "client", msgDASIndexTables, dasIndexTables{
		Session: p1.Session,
		Schema1: p1.Schema, Schema2: p2.Schema,
		JoinCols1: d.joinCols1, JoinCols2: d.joinCols2,
		Cols1: p1.Columns, Cols2: p2.Columns,
		Wrapped1: p1.EncRel.WrappedKey, Wrapped2: p2.EncRel.WrappedKey,
		Enc1: p1.EncIndexTables, Enc2: p2.EncIndexTables,
	}); err != nil {
		return err
	}
	var sq dasServerQuery
	if err := recvInto(client, "client", msgDASServerQuery, &sq); err != nil {
		return err
	}
	if n := len(sq.Query.Filters1) + len(sq.Query.Filters2); n > 0 {
		// Pushdown leaks predicate-satisfaction patterns to the mediator.
		m.Ledger.Observe(leakage.PartyMediator, "pushdown-filters", int64(n))
	}
	var res *das.ServerResult
	err := watch.phase(telemetry.PhaseMatch, func() error {
		var err error
		res, err = das.ExecuteServerQuery(&p1.EncRel, &p2.EncRel, sq.Query)
		return err
	})
	if err != nil {
		return err
	}
	// Table 1: the mediator learns |R_C|, an upper bound of the global
	// result size.
	m.Ledger.Observe(leakage.PartyMediator, "|RC|", int64(len(res.Pairs)))
	return sendMsg(client, "client", msgDASResult, dasResult{Result: *res})
}

// runDAS implements the client side (Listing 2 steps 5 and 7): decrypt the
// index tables, act as the DAS query translator (build q_S and q_C), send
// q_S, then decrypt R_C and apply q_C.
func (c *Client) runDAS(conn transport.Conn, q *sqlparse.Query, params Params, watch *stopwatch) (*relation.Relation, relation.Schema, []string, error) {
	var its dasIndexTables
	if err := recvInto(conn, "mediator", msgDASIndexTables, &its); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	var recv1, recv2 *hybrid.Receiver
	var tables1, tables2 []*das.IndexTable
	var sq das.ServerQuery
	err := watch.phase(telemetry.PhaseTranslate, func() error {
		var err error
		recv1, err = hybrid.NewReceiver(c.PrivateKey, its.Wrapped1)
		if err != nil {
			return err
		}
		recv2, err = hybrid.NewReceiver(c.PrivateKey, its.Wrapped2)
		if err != nil {
			return err
		}
		tables1, err = openIndexTables(recv1, its.Enc1, its.Session, its.Schema1.Relation)
		if err != nil {
			return err
		}
		tables2, err = openIndexTables(recv2, its.Enc2, its.Session, its.Schema2.Relation)
		if err != nil {
			return err
		}
		// Table 1: the client sees both index tables (partition ranges).
		c.Ledger.Observe(leakage.PartyClient, "index-table-partitions",
			int64(len(tables1[0].Entries)+len(tables2[0].Entries)))
		// The join pairs are built from the join-column tables only; the
		// remaining tables cover pushdown filter columns.
		nJoin := len(its.JoinCols1)
		if nJoin > len(tables1) || nJoin > len(tables2) {
			return fmt.Errorf("mediation: fewer index tables than join columns")
		}
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
	if err := sendMsg(conn, "mediator", msgDASServerQuery, dasServerQuery{Query: sq}); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	var res dasResult
	if err := recvInto(conn, "mediator", msgDASResult, &res); err != nil {
		return nil, relation.Schema{}, nil, err
	}
	var joined *relation.Relation
	err = watch.phase(telemetry.PhasePostFilter, func() error {
		var discarded int
		var err error
		joined, discarded, err = das.DecryptServerResult(&res.Result, recv1, recv2,
			its.Schema1, its.Schema2, its.JoinCols1, its.JoinCols2, params.Workers)
		if err != nil {
			return err
		}
		c.Ledger.UsePrimitive(leakage.PartyClient, "hybrid-decryption", int64(len(res.Result.E1)+len(res.Result.E2)))
		// Table 1: the client receives a superset of the global result.
		c.Ledger.Observe(leakage.PartyClient, "superset-size", int64(len(res.Result.Pairs)))
		c.Ledger.Observe(leakage.PartyClient, "false-positives-discarded", int64(discarded))
		return nil
	})
	if err != nil {
		return nil, relation.Schema{}, nil, err
	}
	return joined, its.Schema2, its.JoinCols2, nil
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

func openIndexTables(recv *hybrid.Receiver, blob []byte, session, rel string) ([]*das.IndexTable, error) {
	ct, err := hybrid.UnmarshalCiphertext(blob)
	if err != nil {
		return nil, err
	}
	pt, err := recv.Open(ct, []byte("das:itable:"+session+":"+rel))
	if err != nil {
		return nil, err
	}
	var tables []*das.IndexTable
	if err := transport.Decode(pt, &tables); err != nil {
		return nil, err
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("mediation: empty index table list from %s", rel)
	}
	return tables, nil
}
