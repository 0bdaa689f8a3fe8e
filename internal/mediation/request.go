package mediation

import (
	"fmt"
	"strings"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/crypto/paillier"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
)

// Request is the client's global query message (Listing 1, step 1): the
// SQL text, the credential set CR, and the chosen delivery protocol. For
// the PM protocol the client's homomorphic public key rides along, which
// models the paper's "this key is distributed with the client's
// credentials"; it is drawn fresh for every query.
type Request struct {
	SQL         string
	Credentials credential.Set
	Protocol    Protocol
	Params      Params
	// HomomorphicKey is the client's Paillier public key (aggregation
	// only).
	HomomorphicKey *paillier.PublicKey
	// PMKey is the compressed EC-ElGamal point of the query's ephemeral
	// PM key (PM only).
	PMKey []byte
}

// PartialQuery is the mediator's message to a datasource (Listing 1,
// step 3): the partial query q_i, the credential subset CR_i, and the join
// attribute set A_i, plus everything the delivery phase needs.
type PartialQuery struct {
	// SessionID is a fresh mediator-chosen identifier; it doubles as the
	// oracle domain-separation label in the commutative protocol (both
	// sources must share it).
	SessionID string
	// Query is q_i, e.g. "SELECT * FROM R1".
	Query string
	// Relation is the queried relation's name.
	Relation string
	// JoinCols is A_i: the join attribute names, source-local.
	JoinCols []string
	// FilterCols are additional attributes to index for selection
	// pushdown (DAS extension); empty otherwise.
	FilterCols []string
	// Credentials is CR_i.
	Credentials credential.Set
	// Protocol and Params mirror the client's request.
	Protocol Protocol
	Params   Params
	// HomomorphicKey is forwarded for aggregation, PMKey for the PM
	// protocol.
	HomomorphicKey *paillier.PublicKey
	PMKey          []byte
	// Aggregate is set for aggregation partial queries (the extension of
	// internal/mediation/aggproto.go).
	Aggregate *sqlparse.AggregateSpec
	// Union marks a union partial query: the source ships its sealed rows
	// (mobile-code wire format) and no join attributes are involved.
	Union bool
}

// PartialAck is a datasource's authorization answer (Listing 1, step 4).
// It carries the relation schema — schema metadata is part of the
// mediator's global embedding, not a secret — but never any cardinality.
type PartialAck struct {
	Granted bool
	Reason  string
	Schema  relation.Schema
}

// decomposition is the mediator's view of a parsed JOIN query.
type decomposition struct {
	query      *sqlparse.Query
	rel1, rel2 string
	// joinCols1/joinCols2 are source-local join attribute lists (parallel).
	joinCols1, joinCols2 []string
	schema1, schema2     relation.Schema
}

// decompose implements Listing 1 step 2: parse the global query, check it
// is a two-relation JOIN, resolve the join attribute sets A_1 and A_2
// against the mediator's global schema (the "embedding"), and derive the
// partial queries.
func decompose(sql string, schemas map[string]relation.Schema) (*decomposition, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if q.Right == "" {
		return nil, fmt.Errorf("mediation: query is not a JOIN of two relations: %s", sql)
	}
	if len(q.MoreJoins) > 0 {
		return nil, fmt.Errorf("mediation: chained joins must run as successive joins (Network.Query); the delivery protocols join two relations at a time")
	}
	s1, ok := schemas[q.Left]
	if !ok {
		return nil, fmt.Errorf("mediation: unknown relation %q (not in global schema)", q.Left)
	}
	s2, ok := schemas[q.Right]
	if !ok {
		return nil, fmt.Errorf("mediation: unknown relation %q (not in global schema)", q.Right)
	}
	d := &decomposition{query: q, rel1: q.Left, rel2: q.Right, schema1: s1, schema2: s2}
	if q.Natural {
		for _, c := range s1.Columns {
			if s2.IndexOf(c.Name) >= 0 {
				d.joinCols1 = append(d.joinCols1, c.Name)
				d.joinCols2 = append(d.joinCols2, c.Name)
			}
		}
		if len(d.joinCols1) == 0 {
			return nil, fmt.Errorf("mediation: NATURAL JOIN of %s and %s shares no columns", q.Left, q.Right)
		}
	} else {
		for i := range q.JoinLeft {
			c1 := localColumn(q.JoinLeft[i], q.Left)
			c2 := localColumn(q.JoinRight[i], q.Right)
			k1, err := s1.KindOf(c1)
			if err != nil {
				return nil, fmt.Errorf("mediation: %s has no join column %q", q.Left, c1)
			}
			k2, err := s2.KindOf(c2)
			if err != nil {
				return nil, fmt.Errorf("mediation: %s has no join column %q", q.Right, c2)
			}
			if k1 != k2 {
				return nil, fmt.Errorf("mediation: join column kinds differ: %s.%s is %v, %s.%s is %v", q.Left, c1, k1, q.Right, c2, k2)
			}
			d.joinCols1 = append(d.joinCols1, c1)
			d.joinCols2 = append(d.joinCols2, c2)
		}
	}
	return d, nil
}

// localColumn strips a relation qualifier.
func localColumn(name, rel string) string {
	if strings.HasPrefix(name, rel+".") {
		return name[len(rel)+1:]
	}
	return name
}

// partialSQL renders q_i. The paper fixes partial queries to "select *".
func (d *decomposition) partialSQL(rel string) string {
	return "SELECT * FROM " + rel
}

// postProcess applies, at the client, the global query's remaining
// operations to the joined relation: natural-join column dedup, the WHERE
// predicate, and the projection list. The joined relation carries both
// join columns (qualified on collision), as all three protocols produce.
func postProcess(q *sqlparse.Query, joined *relation.Relation, schema2 relation.Schema, joinCols2 []string) (*relation.Relation, error) {
	out := joined
	var err error
	if q.Natural {
		// Drop the duplicated right-side join columns, as NaturalJoin does.
		var keep []string
		for _, c := range out.Schema().Columns {
			drop := false
			for _, jc := range joinCols2 {
				if c.Name == schema2.Relation+"."+jc {
					drop = true
					break
				}
			}
			if !drop {
				keep = append(keep, c.Name)
			}
		}
		out, err = algebra.Project(out, keep...)
		if err != nil {
			return nil, err
		}
		// Restore unqualified names where unambiguous, matching
		// algebra.NaturalJoin's schema.
		out, err = algebra.UnqualifyUnique(out)
		if err != nil {
			return nil, err
		}
	}
	if q.Where != nil {
		out, err = algebra.Select(out, q.Where)
		if err != nil {
			return nil, err
		}
	}
	if q.Columns != nil {
		out, err = algebra.Project(out, q.Columns...)
		if err != nil {
			return nil, err
		}
	}
	if q.Distinct {
		out = algebra.Distinct(out)
	}
	return out, nil
}

// wireRelation is the gob-friendly form of a relation (for the plaintext
// baseline and test fixtures; the secure protocols never send one).
type wireRelation struct {
	Schema relation.Schema
	Tuples []relation.Tuple
}

// toWire serializes plaintext tuples; a mediator that calls it is
// holding a plaintext relation.
//
// seclint:source plaintext tuple serialization
func toWire(r *relation.Relation) wireRelation {
	return wireRelation{Schema: r.Schema(), Tuples: r.Tuples()}
}

// fromWire materializes plaintext tuples from their wire form.
//
// seclint:source plaintext tuples materialized from the wire
func fromWire(w wireRelation) (*relation.Relation, error) {
	return relation.FromTuples(w.Schema, w.Tuples...)
}
