package secmediation

import (
	"crypto/rsa"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
	"github.com/secmediation/secmediation/internal/transport"
	"github.com/secmediation/secmediation/internal/workload"
)

// Relational substrate.
type (
	// Relation is a bag of tuples under a schema.
	Relation = relation.Relation
	// Schema describes a relation's columns.
	Schema = relation.Schema
	// Column is one schema attribute.
	Column = relation.Column
	// Tuple is one row.
	Tuple = relation.Tuple
	// Value is a dynamically typed attribute value.
	Value = relation.Value
	// Kind enumerates attribute types.
	Kind = relation.Kind
)

// Attribute kinds.
const (
	KindInt    = relation.KindInt
	KindString = relation.KindString
	KindFloat  = relation.KindFloat
	KindBool   = relation.KindBool
)

// Value constructors.
var (
	// Int builds an INT value.
	Int = relation.Int
	// Str builds a TEXT value.
	Str = relation.String_
	// Float builds a FLOAT value.
	Float = relation.Float
	// Bool builds a BOOL value.
	Bool = relation.Bool
	// NewSchema validates and builds a schema.
	NewSchema = relation.NewSchema
	// MustSchema is NewSchema panicking on error.
	MustSchema = relation.MustSchema
	// NewRelation creates an empty relation.
	NewRelation = relation.New
	// FromTuples builds a relation from tuples.
	FromTuples = relation.FromTuples
	// ReadCSV loads a relation from CSV (header "name:TYPE,...").
	ReadCSV = relation.ReadCSV
	// WriteCSV writes a relation in ReadCSV's format.
	WriteCSV = relation.WriteCSV
)

// Mediation parties and protocols.
type (
	// Client is the querying party.
	Client = mediation.Client
	// Mediator is the untrusted middle party.
	Mediator = mediation.Mediator
	// Source is a datasource party.
	Source = mediation.Source
	// Network wires parties in-process.
	Network = mediation.Network
	// Protocol selects a delivery-phase protocol.
	Protocol = mediation.Protocol
	// Params tunes the protocols.
	Params = mediation.Params
	// Dialer opens a fresh link to a datasource for one session.
	Dialer = mediation.Dialer
)

// Delivery-phase protocols (paper Listings 2–4) and baselines.
const (
	// Plaintext is the trusted-mediator baseline.
	Plaintext = mediation.ProtocolPlaintext
	// MobileCode is the prior MMM solution (join at the client).
	MobileCode = mediation.ProtocolMobileCode
	// DAS is the Database-as-a-Service protocol (Listing 2).
	DAS = mediation.ProtocolDAS
	// Commutative is the commutative-encryption protocol (Listing 3).
	Commutative = mediation.ProtocolCommutative
	// PM is the private-matching protocol (Listing 4).
	PM = mediation.ProtocolPM
)

// DAS partitioning strategies.
const (
	// EquiWidth splits the value range into equal-width intervals.
	EquiWidth = das.EquiWidth
	// EquiDepth splits the sorted domain into equal-count partitions.
	EquiDepth = das.EquiDepth
	// HashBuckets hashes values into buckets.
	HashBuckets = das.HashBuckets
)

// Credentials and access control.
type (
	// Authority is a certification authority.
	Authority = credential.Authority
	// Credential binds properties to a client public key.
	Credential = credential.Credential
	// Credentials is a credential set.
	Credentials = credential.Set
	// Property is one attested client attribute.
	Property = credential.Property
	// Policy is a source-side access policy.
	Policy = credential.Policy
	// Requirement is one policy clause.
	Requirement = credential.Requirement
	// RowFilter is a row-level policy restriction.
	RowFilter = credential.RowFilter
	// Ledger records leakage and primitive usage.
	Ledger = leakage.Ledger
	// JoinSpec describes a synthetic join workload.
	JoinSpec = workload.JoinSpec
	// Expr is a predicate expression (row filters, WHERE clauses).
	Expr = algebra.Expr
)

// ParseWhere parses the WHERE clause of "SELECT * FROM R WHERE ..." into a
// predicate expression, a convenient way to state row filters in SQL.
func ParseWhere(sql string) (Expr, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return q.Where, nil
}

var (
	// NewClient creates a client with a fresh key pair.
	NewClient = mediation.NewClient
	// NewAuthority creates a certification authority.
	NewAuthority = credential.NewAuthority
	// NewNetwork wires parties in-process.
	NewNetwork = mediation.NewNetwork
	// NewLedger creates an empty leakage ledger.
	NewLedger = leakage.NewLedger
	// MaterializeView prepares a result for re-registration as a relation
	// (mediator hierarchy).
	MaterializeView = mediation.MaterializeView
	// ParseSQL parses the supported SQL fragment.
	ParseSQL = sqlparse.Parse
)

// PublicKeyOf returns the hybrid public key of a client, the one a
// certification authority binds into credentials.
func PublicKeyOf(c *Client) *rsa.PublicKey { return &c.PrivateKey.PublicKey }

// NewSource assembles a datasource serving the given relations under the
// given policies, trusting the listed authorities.
func NewSource(name string, rels map[string]*Relation, policies []*Policy, cas ...*Authority) *Source {
	catalog := make(algebra.MapCatalog, len(rels))
	for n, r := range rels {
		catalog[n] = r
	}
	polMap := make(map[string]*credential.Policy, len(policies))
	for _, p := range policies {
		polMap[p.Relation] = p
	}
	var keys []*rsa.PublicKey
	for _, ca := range cas {
		keys = append(keys, ca.PublicKey())
	}
	return &Source{Name: name, Catalog: catalog, Policies: polMap, TrustedCAs: keys}
}

// RequireProperty builds the common one-clause policy: access to relation
// requires a credential attesting name=value.
func RequireProperty(relName, name, value string) *Policy {
	return &Policy{
		Relation: relName,
		Require:  []Requirement{{Property: Property{Name: name, Value: value}}},
	}
}

// Transport re-exports for distributed deployments (cmd/mediator etc.).
type (
	// Conn is a party-to-party link.
	Conn = transport.Conn
	// Listener accepts party connections.
	Listener = transport.Listener
	// RetryPolicy shapes DialRetry's backoff.
	RetryPolicy = transport.RetryPolicy
	// FaultPlan schedules deterministic fault injection on a link.
	FaultPlan = transport.FaultPlan
	// FaultClass enumerates injectable link faults.
	FaultClass = transport.FaultClass
	// ProtocolError attributes a mid-protocol failure to a party and phase.
	ProtocolError = mediation.ProtocolError
)

var (
	// Dial connects to a listening party.
	Dial = transport.Dial
	// DialRetry is Dial with capped exponential backoff between attempts.
	DialRetry = transport.DialRetry
	// Listen starts a party listener.
	Listen = transport.Listen
	// WrapFault injects scheduled faults into a link (tests, chaos drills).
	WrapFault = transport.WrapFault
	// ErrTimeout marks a send/receive that exceeded the armed deadline.
	ErrTimeout = transport.ErrTimeout
	// ErrTooLarge marks an inbound frame above the listener's size limit.
	ErrTooLarge = transport.ErrTooLarge
)
