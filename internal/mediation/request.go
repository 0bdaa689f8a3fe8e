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
// SQL text (a join, a union or an aggregate), the credential set CR, and
// the chosen delivery protocol. The client's homomorphic public keys ride
// along, which models the paper's "this key is distributed with the
// client's credentials": the PM key, drawn fresh for every PM join, and
// the Paillier key of an aggregate.
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
// attribute set A_i, plus everything the delivery phase needs. A union's
// partial queries are mobile-code ones with an empty A_i.
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
}

// PartialAck is a datasource's authorization answer (Listing 1, step 4).
// It carries the relation schema — schema metadata is part of the
// mediator's global embedding, not a secret — but never any cardinality.
type PartialAck struct {
	Granted bool
	Reason  string
	Schema  relation.Schema
}

// decomposition is the mediator's view of a parsed global query: the
// relations it reads (two for a join or a union, one for an aggregate),
// the partial query each source runs, and the delivery phase that follows.
type decomposition struct {
	query *sqlparse.Query
	// protocol is the delivery phase (see delivery); requestPhase sets it.
	protocol Protocol
	// rel2, partial2, joinCols2 and schema2 are empty for an aggregate.
	rel1, rel2 string
	// partial1/partial2 are q_1 and q_2.
	partial1, partial2 string
	// joinCols1/joinCols2 are source-local join attribute lists (parallel);
	// empty for a union or an aggregate.
	joinCols1, joinCols2 []string
	schema1, schema2     relation.Schema
}

// delivery names the delivery phase a query runs: the client's protocol
// for a join (an aggregate ignores it), mobile code for a union — its
// result is the two sealed partial results, which only the client can
// open and merge.
func delivery(q *sqlparse.Query, proto Protocol) Protocol {
	if q.UnionWith != "" {
		return ProtocolMobileCode
	}
	return proto
}

// decompose implements Listing 1 step 2: parse the global query, resolve
// its relations against the mediator's global schema (the "embedding"),
// and derive the partial queries — for a JOIN with the join attribute sets
// A_1 and A_2, for a UNION of two same-schema relations, and for an
// aggregate over one relation (its WHERE stays in q_1: the source owns
// the plaintext and filters before it encrypts).
func decompose(sql string, schemas map[string]relation.Schema) (*decomposition, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	schemaOf := func(rel string) (relation.Schema, error) {
		s, ok := schemas[rel]
		if !ok {
			return relation.Schema{}, fmt.Errorf("mediation: unknown relation %q (not in global schema)", rel)
		}
		return s, nil
	}
	d := &decomposition{query: q, rel1: q.Left, partial1: selectAll(q.Left)}
	if d.schema1, err = schemaOf(q.Left); err != nil {
		return nil, err
	}
	switch {
	case q.Aggregate != nil:
		if q.Right != "" {
			return nil, fmt.Errorf("mediation: aggregates over joins are not supported")
		}
		partial := *q
		partial.Aggregate = nil
		d.partial1 = partial.String()
		return d, nil
	case q.UnionWith != "":
		d.rel2, d.partial2 = q.UnionWith, selectAll(q.UnionWith)
		if d.schema2, err = schemaOf(q.UnionWith); err != nil {
			return nil, err
		}
		if !d.schema1.Equal(d.schema2) {
			return nil, fmt.Errorf("mediation: UNION of incompatible schemas %s and %s", d.schema1, d.schema2)
		}
		return d, nil
	case q.Right == "":
		return nil, fmt.Errorf("mediation: query is not a JOIN, UNION or aggregate: %s", sql)
	case len(q.MoreJoins) > 0:
		return nil, fmt.Errorf("mediation: chained joins must run as successive joins (Network.Query); the delivery protocols join two relations at a time")
	}
	d.rel2, d.partial2 = q.Right, selectAll(q.Right)
	if d.schema2, err = schemaOf(q.Right); err != nil {
		return nil, err
	}
	s1, s2 := d.schema1, d.schema2
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

// selectAll renders a join or union partial query q_i: the paper fixes
// them to "select *".
func selectAll(rel string) string {
	return "SELECT * FROM " + rel
}

// relations lists the relations d reads, in link order.
func (d *decomposition) relations() []string {
	if d.rel2 == "" {
		return []string{d.rel1}
	}
	return []string{d.rel1, d.rel2}
}

// postProcess applies, at the client, the global query's remaining
// operations to the joined (or unioned) relation: natural-join column
// dedup, the WHERE predicate, the projection list, and duplicate
// elimination for DISTINCT and plain UNION. The joined relation carries
// both join columns (qualified on collision), as all three protocols
// produce.
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
	if q.Distinct || (q.UnionWith != "" && !q.UnionAll) {
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
