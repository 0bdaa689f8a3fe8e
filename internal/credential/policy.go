package credential

import (
	"crypto/rsa"
	"crypto/subtle"
	"fmt"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/relation"
)

// Requirement is one clause of an access policy: the client must present a
// verifiable credential attesting Property.
type Requirement struct {
	Property Property
}

// RowFilter optionally narrows the granted rows: when the client's
// credentials satisfy a policy only via the filter's requirement, the
// partial result is restricted to rows matching Predicate — the paper's
// "partial results might be filtered in order to return only those records
// for which access permissions exist".
type RowFilter struct {
	// IfProperty selects this filter when the granting credential carries
	// the property.
	IfProperty Property
	// Predicate keeps only matching rows (evaluated against the source's
	// relation schema).
	Predicate algebra.Expr
}

// Policy is a datasource's access policy for one relation: the client must
// satisfy all Require clauses; the narrowest applicable RowFilter (first
// match wins) is applied to the partial result.
type Policy struct {
	// Relation names the protected relation.
	Relation string
	// Require lists properties that must all be attested.
	Require []Requirement
	// Filters lists optional row-level restrictions.
	Filters []RowFilter
}

// Decision is the outcome of an access check.
type Decision struct {
	// Granted reports whether the query may run at all.
	Granted bool
	// ClientKey is the RSA key that every verified credential binds. The
	// query root must carry its signature: a source encrypts only to a
	// query key that the holder of the granting credentials chose.
	ClientKey *rsa.PublicKey
	// Filter is the row-level predicate to apply, or nil for full access.
	Filter algebra.Expr
	// Reason explains denials.
	Reason string
}

// Check evaluates the policy against a credential set, verifying every
// used credential against the trusted CA keys. Credentials that do not
// verify are ignored (semi-honest mediators may forward stale ones). The
// verified ones must all bind one client key: credentials cross the
// mediator in the clear, so a set that mixed keys would let one client
// borrow another client's properties.
func (p *Policy) Check(creds Set, trusted []*rsa.PublicKey, now time.Time) Decision {
	verified := make(Set, 0, len(creds))
	for _, c := range creds {
		for _, ca := range trusted {
			if err := c.Verify(ca, now); err == nil {
				verified = append(verified, c)
				break
			}
		}
	}
	if len(verified) == 0 {
		return Decision{Reason: "no verifiable credentials presented"}
	}
	for _, c := range verified[1:] {
		if subtle.ConstantTimeCompare(c.ClientKeyDER, verified[0].ClientKeyDER) != 1 {
			return Decision{Reason: "credentials bind more than one client key"}
		}
	}
	for _, req := range p.Require {
		if !verified.attests(req.Property) {
			return Decision{Reason: fmt.Sprintf("missing property %s=%s", req.Property.Name, req.Property.Value)}
		}
	}
	key, err := verified[0].ClientKey()
	if err != nil {
		return Decision{Reason: err.Error()}
	}
	d := Decision{Granted: true, ClientKey: key}
	for _, f := range p.Filters {
		if verified.attests(f.IfProperty) {
			d.Filter = f.Predicate
			break
		}
	}
	return d
}

// attests reports whether some credential of the set attests p.
func (s Set) attests(p Property) bool {
	for _, c := range s {
		if c.HasProperty(p.Name, p.Value) {
			return true
		}
	}
	return false
}

// ApplyFilter applies a decision's row filter to a partial result (no-op
// when the decision grants full access).
func (d Decision) ApplyFilter(r *relation.Relation) (*relation.Relation, error) {
	if d.Filter == nil {
		return r, nil
	}
	return algebra.Select(r, d.Filter)
}
