// Package keyscope exercises the keyscope analyzer: private-key
// material must not be gob-encoded onto a link (wire rule, any party)
// and must not be held by mediator-reachable code (mediator rule).
package keyscope

import "github.com/secmediation/secmediation/internal/crypto/ecelgamal"

// PrivKey is the fixture's decryption key.
//
// seclint:private fixture decryption key
type PrivKey struct{ D int }

// PubKey is public material and may go anywhere.
type PubKey struct{ N int }

// keyring nests the key two levels deep: the structural check must see
// through the struct, the slice and the pointer.
type keyring struct {
	Label string
	Keys  []*PrivKey
}

// send models the transport gob-encode point.
//
// seclint:wire gob-encodes v onto the link
func send(v any) error { _ = v; return nil }

// shipKey puts a bare private key on the wire (any party: forbidden).
func shipKey(k *PrivKey) error {
	return send(k) // want "private-key material keyscope.PrivKey"
}

// shipRing leaks the key through the nested struct.
func shipRing(r keyring) error {
	return send(r) // want "private-key material keyscope.PrivKey"
}

// shipPub sends public material: clean.
func shipPub(p *PubKey) error {
	return send(p)
}

// Mediator is the fixture's untrusted mediator.
type Mediator struct{}

// HandleSession is the protocol entry point seeding reachability; its
// own public-key parameter is fine.
//
// seclint:entry mediator
func (m *Mediator) HandleSession(pub *PubKey) {
	holdKey()
	mixKeys(nil)
	_ = pub
}

// holdKey declares a key-bearing local in mediator-reachable code.
func holdKey() {
	var k PrivKey // want "holds private-key material keyscope.PrivKey"
	_ = k
}

// mixKeys takes key-bearing parameters in mediator-reachable code; the
// signature itself is the finding, anchored at the declaration.
func mixKeys(ks []*PrivKey) { // want "holds private-key material keyscope.PrivKey"
	for range ks {
	}
}

// clientDecrypt holds the key but is never mediator-reachable: the
// owning party decrypting its own data is the normal case.
func clientDecrypt(k *PrivKey) int { return k.D }

// shipPMKey puts the real PM decryption key on the wire: the module's
// own seclint:private annotation is what makes it key material.
func shipPMKey(k *ecelgamal.PrivateKey) error {
	return send(k) // want "private-key material ecelgamal.PrivateKey"
}
