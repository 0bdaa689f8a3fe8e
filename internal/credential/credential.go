// Package credential implements the MMM system's credential-based access
// control (paper Section 2): a trusted certification authority issues
// credentials that bind *properties* of a client to one of the client's
// RSA public keys — without revealing the client's identity.
// Datasources base access decisions solely on the properties shown. The
// public key inside an accepted credential verifies the client's
// signature on the query root, from which each query's P-256 key derives;
// the delivery-phase protocols seal partial results to that P-256 key,
// never to the RSA key.
//
// Signatures are RSA-PSS over a canonical serialization of the credential
// body; VerifyPSS checks each distinct signature once per process.
// Identity certificates (linking identity to a key, kept by the client
// "in a safe place" for legal disputes) are modeled too, but never travel
// with queries.
package credential

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"sort"
	"time"
)

// Property is a single attested client attribute, e.g. {"role",
// "physician"} or {"clearance", "secret"}.
type Property struct {
	Name  string
	Value string
}

// Credential binds a set of properties to a client RSA public key. It
// deliberately carries no client identity.
type Credential struct {
	// Properties are the attested attributes, kept sorted by (Name, Value).
	Properties []Property
	// ClientKeyDER is the client's RSA public key (PKIX DER). The
	// datasources use it to verify the client's query-root signature.
	ClientKeyDER []byte
	// NotAfter bounds the credential's validity.
	NotAfter time.Time
	// Issuer names the certification authority.
	Issuer string
	// Signature is the CA's RSA-PSS signature over the canonical body.
	Signature []byte
}

// IdentityCertificate links a client identity to a public key; kept by the
// client, used only out-of-band (e.g. in a legal dispute), never attached
// to queries.
type IdentityCertificate struct {
	Identity     string
	ClientKeyDER []byte
	Issuer       string
	Signature    []byte
}

// Authority is the trusted certification authority of the preparatory
// phase.
type Authority struct {
	name string
	key  *rsa.PrivateKey
}

// NewAuthority creates a CA with a fresh signing key.
func NewAuthority(name string) (*Authority, error) {
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return nil, fmt.Errorf("credential: authority key: %w", err)
	}
	return &Authority{name: name, key: key}, nil
}

// NewAuthorityWithKey creates a CA from an existing signing key (the
// deployment binaries persist CA keys with internal/keyio).
func NewAuthorityWithKey(name string, key *rsa.PrivateKey) *Authority {
	return &Authority{name: name, key: key}
}

// Name returns the CA's name.
func (a *Authority) Name() string { return a.name }

// PublicKey returns the CA's verification key; datasources are configured
// with the keys of the authorities they trust.
func (a *Authority) PublicKey() *rsa.PublicKey { return &a.key.PublicKey }

// Issue creates a signed credential binding the properties to the client's
// public key, valid for the given duration.
func (a *Authority) Issue(clientKey *rsa.PublicKey, props []Property, validity time.Duration) (*Credential, error) {
	der, err := x509.MarshalPKIXPublicKey(clientKey)
	if err != nil {
		return nil, fmt.Errorf("credential: marshal client key: %w", err)
	}
	sorted := append([]Property(nil), props...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Name != sorted[j].Name {
			return sorted[i].Name < sorted[j].Name
		}
		return sorted[i].Value < sorted[j].Value
	})
	c := &Credential{
		Properties:   sorted,
		ClientKeyDER: der,
		NotAfter:     time.Now().Add(validity).UTC().Truncate(time.Second),
		Issuer:       a.name,
	}
	digest := c.digest()
	sig, err := a.sign(digest)
	if err != nil {
		return nil, fmt.Errorf("credential: sign: %w", err)
	}
	c.Signature = sig
	return c, nil
}

// sign signs a SHA-256 digest with the authority's key.
// seclint:sanitizer a signature is public: it travels with what it signs
func (a *Authority) sign(digest []byte) ([]byte, error) {
	return rsa.SignPSS(rand.Reader, a.key, crypto.SHA256, digest, nil)
}

// IssueIdentity creates the identity certificate the client keeps private.
func (a *Authority) IssueIdentity(identity string, clientKey *rsa.PublicKey) (*IdentityCertificate, error) {
	der, err := x509.MarshalPKIXPublicKey(clientKey)
	if err != nil {
		return nil, fmt.Errorf("credential: marshal client key: %w", err)
	}
	ic := &IdentityCertificate{Identity: identity, ClientKeyDER: der, Issuer: a.name}
	h := sha256.New()
	h.Write([]byte("secmediation/identity\x00"))
	writeLV(h, []byte(ic.Identity))
	writeLV(h, ic.ClientKeyDER)
	writeLV(h, []byte(ic.Issuer))
	sig, err := a.sign(h.Sum(nil))
	if err != nil {
		return nil, fmt.Errorf("credential: sign identity: %w", err)
	}
	ic.Signature = sig
	return ic, nil
}

// digest hashes the canonical credential body (everything but the
// signature) with domain separation and length framing.
func (c *Credential) digest() []byte {
	h := sha256.New()
	h.Write([]byte("secmediation/credential\x00"))
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], uint64(len(c.Properties)))
	h.Write(nb[:])
	for _, p := range c.Properties {
		writeLV(h, []byte(p.Name))
		writeLV(h, []byte(p.Value))
	}
	writeLV(h, c.ClientKeyDER)
	binary.BigEndian.PutUint64(nb[:], uint64(c.NotAfter.Unix()))
	h.Write(nb[:])
	writeLV(h, []byte(c.Issuer))
	return h.Sum(nil)
}

func writeLV(h interface{ Write([]byte) (int, error) }, b []byte) {
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], uint32(len(b)))
	h.Write(lb[:])
	h.Write(b)
}

// Verify checks the credential's validity period against now, on every
// call, and its signature against a trusted CA key, once per process
// (VerifyPSS).
func (c *Credential) Verify(caKey *rsa.PublicKey, now time.Time) error {
	if now.After(c.NotAfter) {
		return fmt.Errorf("credential: expired at %v", c.NotAfter)
	}
	if err := VerifyPSS(caKey, c.digest(), c.Signature); err != nil {
		return fmt.Errorf("credential: bad signature: %w", err)
	}
	return nil
}

// ClientKey parses the embedded client public key.
func (c *Credential) ClientKey() (*rsa.PublicKey, error) {
	pub, err := x509.ParsePKIXPublicKey(c.ClientKeyDER)
	if err != nil {
		return nil, fmt.Errorf("credential: parse client key: %w", err)
	}
	rsaPub, ok := pub.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("credential: client key is %T, want RSA", pub)
	}
	return rsaPub, nil
}

// HasProperty reports whether the credential attests the given property.
func (c *Credential) HasProperty(name, value string) bool {
	for _, p := range c.Properties {
		if p.Name == name && p.Value == value {
			return true
		}
	}
	return false
}

// Set is the client's credential set CR; the mediator selects subsets CRi
// for each datasource.
type Set []*Credential

// WithProperty returns the subset of credentials attesting the named
// property (any value). This is the mediator's credential-selection
// primitive (Listing 1, step 2).
func (s Set) WithProperty(name string) Set {
	var out Set
	for _, c := range s {
		for _, p := range c.Properties {
			if p.Name == name {
				out = append(out, c)
				break
			}
		}
	}
	return out
}
