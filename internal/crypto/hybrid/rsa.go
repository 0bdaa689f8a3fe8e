package hybrid

// Bench-only: RSA-OAEP key transport. No protocol path uses it since the
// sessions moved to ECDH; the frozen benchmark's per-layer probes
// (bench/surface.go, hybrid.wrap_ns / hybrid.unwrap_ns and the DAS
// probes) still compile against these names. Delete this file once the
// benchmark is repointed (ROADMAP item 1a).

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
)

// oaepLabel binds the OAEP wrapping to this use.
var oaepLabel = []byte("secmediation/hybrid")

// NewSession draws a random session key and wraps it for the recipient's
// RSA public key with RSA-OAEP(SHA-256). Bench-only.
func NewSession(pub *rsa.PublicKey) (*Session, error) {
	key := make([]byte, sessionKeyLen)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("hybrid: session key: %w", err)
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pub, key, oaepLabel)
	if err != nil {
		return nil, fmt.Errorf("hybrid: wrap session key: %w", err)
	}
	opWrap.Add(1)
	return &Session{key: key, share: wrapped}, nil
}

// WrappedKey is Share under the name the benchmark calls. Bench-only.
func (s *Session) WrappedKey() []byte { return s.share }

// NewReceiver unwraps a NewSession key with the RSA private key. OAEP
// authenticates the padding, but a blob from another sender could still
// carry a short key; it is refused. Bench-only.
// seclint:source unwrapped session key
func NewReceiver(priv *rsa.PrivateKey, wrappedKey []byte) (*Receiver, error) {
	key, err := rsa.DecryptOAEP(sha256.New(), nil, priv, wrappedKey, oaepLabel)
	if err != nil {
		return nil, fmt.Errorf("hybrid: unwrap session key: %w", err)
	}
	if len(key) != sessionKeyLen {
		return nil, fmt.Errorf("hybrid: unwrapped session key has %d bytes, want %d", len(key), sessionKeyLen)
	}
	opUnwrap.Add(1)
	return &Receiver{key: key}, nil
}
