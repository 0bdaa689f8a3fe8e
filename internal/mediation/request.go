package mediation

import (
	"crypto"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync/atomic"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
)

// Request is the client's global query message (Listing 1, step 1): the
// SQL text (a join, a union or an aggregate), the credential set CR, and
// the chosen delivery protocol. The client's public key rides along,
// which models the paper's "this key is distributed with the client's
// credentials": a P-256 query root, which the credential's RSA key signs
// once per root lifetime (see queryRoot), and the counter from which
// every query but a plaintext join derives its own key. A source thus
// encrypts only to a key the credential's holder chose, and each query
// to a different one.
type Request struct {
	SQL         string
	Credentials credential.Set
	Protocol    Protocol
	Params      Params
	// QueryKey is the compressed P-256 point X of the client's query
	// root. The query's own key is X + h·G with h from X and
	// QueryKeyIndex (hybrid.DeriveQueryPublic): the sources' hybrid
	// sessions agree their keys with it, and PM encrypts under it as an
	// EC-ElGamal key.
	QueryKey []byte
	// QueryKeySig is the client's RSA-PSS/SHA-256 signature of
	// queryRootDigest(QueryKey) under the credential's key.
	QueryKeySig []byte
	// QueryKeyIndex is the query's counter under the root: the client
	// uses each value once, so no two queries share a key.
	QueryKeyIndex uint64
}

// queryRootTag domain-separates the query-root binding from every other
// message the client key signs, the per-query signatures of earlier
// versions included.
const queryRootTag = "secmediation/query-root\x00"

// queryRootDigest is SHA-256(tag ‖ root): what the client signs to bind
// its query root to its credential.
func queryRootDigest(root []byte) []byte {
	h := sha256.New()
	h.Write([]byte(queryRootTag))
	h.Write(root)
	return h.Sum(nil)
}

// needsQueryKey reports whether a query carries a signed query key: every
// one but a plaintext join, whose partial results travel in the clear.
// proto is the delivery phase, so an aggregate or a union always has one.
func needsQueryKey(proto Protocol) bool {
	return proto != ProtocolPlaintext
}

// rootSignatures counts the query-root signatures this process has made.
var rootSignatures atomic.Int64

// signQueryRoot signs a query root with the credential's private key.
// seclint:sanitizer a signature is public: it travels in the request
func signQueryRoot(priv *rsa.PrivateKey, root []byte) ([]byte, error) {
	rootSignatures.Add(1)
	sig, err := rsa.SignPSS(rand.Reader, priv, crypto.SHA256, queryRootDigest(root), nil)
	if err != nil {
		return nil, fmt.Errorf("mediation: signing the query root: %w", err)
	}
	return sig, nil
}

// verifyQueryKey is a source's check that the query root was signed by
// the client key of the credential that granted access, the parse of the
// root and the derivation of the query's key from it. Every credential
// crosses the mediator in the clear; without this check anyone holding a
// copy could run a query under a key of their own. The signature is
// verified once per root and process (credential.VerifyPSS); the parse
// and the derivation run per query. A non-empty reason denies the query;
// a malformed root is refused here, before any scalar touches it.
func verifyQueryKey(pq *PartialQuery, clientKey *rsa.PublicKey) (*ecdh.PublicKey, string) {
	if !needsQueryKey(pq.Protocol) {
		return nil, ""
	}
	if err := credential.VerifyPSS(clientKey, queryRootDigest(pq.QueryKey), pq.QueryKeySig); err != nil {
		return nil, "query key is not signed by the credential's client key"
	}
	root, err := hybrid.ParsePoint(pq.QueryKey)
	if err != nil {
		return nil, fmt.Sprintf("malformed query key: %v", err)
	}
	key, err := hybrid.DeriveQueryPublic(root, pq.QueryKeyIndex)
	if err != nil {
		return nil, fmt.Sprintf("underivable query key: %v", err)
	}
	return key, ""
}

// PartialQuery is the mediator's message to a datasource (Listing 1,
// step 3): the partial query q_i, the credential subset CR_i, and the join
// attribute set A_i, plus everything the delivery phase needs. The partial
// queries of a union and an aggregate are mobile-code ones with an empty
// A_i.
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
	// QueryKey, QueryKeySig and QueryKeyIndex are forwarded from the
	// client's request.
	QueryKey      []byte
	QueryKeySig   []byte
	QueryKeyIndex uint64
	// Aggregate is set for an aggregate's partial query: the source folds
	// its rows into the one result row (see aggregate).
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
// for a join, mobile code for a union and an aggregate — a union's result
// is the two sealed partial results, which only the client can open and
// merge, and an aggregate's is the one row its source sealed.
func delivery(q *sqlparse.Query, proto Protocol) Protocol {
	if q.UnionWith != "" || q.Aggregate != nil {
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
	if d.joinCols1, d.joinCols2, err = joinColumns(q, d.schema1, d.schema2); err != nil {
		return nil, err
	}
	return d, nil
}

// joinColumns resolves the join attribute sets A_1 and A_2 of the join
// q over the schemas s1 and s2 of its two relations: the shared columns
// of a NATURAL JOIN, else the ON pairs, which must agree in kind. The
// mediator decomposes a query with it, and the DAS and mobile-code
// clients resolve their own A_i with it over the schemas the sources
// sealed under, so no A_i the mediator relays is joined on.
func joinColumns(q *sqlparse.Query, s1, s2 relation.Schema) (cols1, cols2 []string, err error) {
	if q.Natural {
		for _, c := range s1.Columns {
			if s2.IndexOf(c.Name) >= 0 {
				cols1 = append(cols1, c.Name)
				cols2 = append(cols2, c.Name)
			}
		}
		if len(cols1) == 0 {
			return nil, nil, fmt.Errorf("mediation: NATURAL JOIN of %s and %s shares no columns", q.Left, q.Right)
		}
		return cols1, cols2, nil
	}
	for i := range q.JoinLeft {
		c1 := localColumn(q.JoinLeft[i], q.Left)
		c2 := localColumn(q.JoinRight[i], q.Right)
		k1, err := s1.KindOf(c1)
		if err != nil {
			return nil, nil, fmt.Errorf("mediation: %s has no join column %q", q.Left, c1)
		}
		k2, err := s2.KindOf(c2)
		if err != nil {
			return nil, nil, fmt.Errorf("mediation: %s has no join column %q", q.Right, c2)
		}
		if k1 != k2 {
			return nil, nil, fmt.Errorf("mediation: join column kinds differ: %s.%s is %v, %s.%s is %v", q.Left, c1, k1, q.Right, c2, k2)
		}
		cols1 = append(cols1, c1)
		cols2 = append(cols2, c2)
	}
	return cols1, cols2, nil
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

// wireRelation is the wire form of a plaintext relation (for the
// plaintext baseline; the secure protocols never send one).
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
