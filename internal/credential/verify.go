package credential

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"github.com/secmediation/secmediation/internal/telemetry"
)

// A source checks the same two signatures on every query of a root's
// lifetime: the CA's on the credential and the client's on the query
// root. VerifyPSS remembers each success, so the RSA work is done once
// per (credential, CA key) and once per root in a process.
//
// verifyMemoCap bounds the memo. An entry is a 32-byte hash in a map and
// in a ring, so a full memo takes under 100 kB.
const verifyMemoCap = 1024

// opVerify counts the RSA-PSS verifications made: the memo's misses.
var opVerify = telemetry.CryptoOp("credential.rsa_verify")

// verified is the process-wide memo of successful verifications, keyed
// by verifyMemoKey. Failures are never stored: a forged signature costs
// one verification each time and cannot evict an entry.
var verified struct {
	mu   sync.Mutex
	seen map[[sha256.Size]byte]struct{}
	// ring holds the keys in arrival order; once the memo is full,
	// ring[next] is its oldest key, the one evicted next (FIFO).
	ring [verifyMemoCap][sha256.Size]byte
	next int
}

// VerifyPSS checks an RSA-PSS/SHA-256 signature of digest under pub, as
// rsa.VerifyPSS does, and returns nil at once for a signature it has
// verified before.
func VerifyPSS(pub *rsa.PublicKey, digest, sig []byte) error {
	key := verifyMemoKey(pub, digest, sig)
	verified.mu.Lock()
	_, hit := verified.seen[key]
	verified.mu.Unlock()
	if hit {
		return nil
	}
	opVerify.Add(1)
	if err := rsa.VerifyPSS(pub, crypto.SHA256, digest, sig, nil); err != nil {
		return err
	}
	verified.mu.Lock()
	defer verified.mu.Unlock()
	if _, hit := verified.seen[key]; hit {
		return nil // a concurrent verification stored it first
	}
	if verified.seen == nil {
		verified.seen = make(map[[sha256.Size]byte]struct{}, verifyMemoCap)
	}
	if len(verified.seen) == verifyMemoCap {
		delete(verified.seen, verified.ring[verified.next])
	}
	verified.ring[verified.next] = key
	verified.next = (verified.next + 1) % verifyMemoCap
	verified.seen[key] = struct{}{}
	return nil
}

// verifyMemoKey hashes every input of one verification, length-framed:
// the public key's modulus and exponent, the digest and the signature.
func verifyMemoKey(pub *rsa.PublicKey, digest, sig []byte) (key [sha256.Size]byte) {
	h := sha256.New()
	writeLV(h, pub.N.Bytes())
	var eb [8]byte
	binary.BigEndian.PutUint64(eb[:], uint64(pub.E))
	h.Write(eb[:])
	writeLV(h, digest)
	writeLV(h, sig)
	h.Sum(key[:0])
	return key
}
