// Package hybrid implements the paper's hybrid encryption functions
// encrypt(...) and decrypt(...): data is encrypted under a freshly
// generated symmetric session key (AES-256-GCM) and the session key is
// wrapped under the client's public key (RSA-OAEP with SHA-256) taken from
// a credential.
//
// Two granularities are offered, matching the paper's usage:
//
//   - One-shot Encrypt/Decrypt wraps a fresh session key per message
//     (used when a single blob is sent, e.g. an index table).
//   - Session amortizes one wrapped key over many messages (the paper
//     recommends encrypting a partial result and its index table with the
//     same session key).
package hybrid

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
)

// KeyBits is the default RSA modulus size for client keys.
const KeyBits = 2048

// sessionKeyLen is the AES-256 key length.
const sessionKeyLen = 32

// GenerateKeyPair creates a client key pair for hybrid encryption.
func GenerateKeyPair(rnd io.Reader) (*rsa.PrivateKey, error) {
	key, err := rsa.GenerateKey(rnd, KeyBits)
	if err != nil {
		return nil, fmt.Errorf("hybrid: generate key: %w", err)
	}
	return key, nil
}

// Ciphertext is a hybrid-encrypted message: the RSA-wrapped session key
// (empty when the message belongs to an established Session), the GCM
// nonce, and the AEAD ciphertext.
type Ciphertext struct {
	WrappedKey []byte
	Nonce      []byte
	Sealed     []byte
}

// Marshal serializes the ciphertext into a single length-prefixed blob
// (3 × uint32 length + bytes), suitable for transport message fields.
func (c *Ciphertext) Marshal() []byte {
	out := make([]byte, 0, 12+len(c.WrappedKey)+len(c.Nonce)+len(c.Sealed))
	for _, part := range [][]byte{c.WrappedKey, c.Nonce, c.Sealed} {
		var lb [4]byte
		binary.BigEndian.PutUint32(lb[:], uint32(len(part)))
		out = append(out, lb[:]...)
		out = append(out, part...)
	}
	return out
}

// UnmarshalCiphertext parses a blob produced by Marshal.
func UnmarshalCiphertext(b []byte) (*Ciphertext, error) {
	var parts [3][]byte
	for i := 0; i < 3; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("hybrid: truncated ciphertext header")
		}
		n := int(binary.BigEndian.Uint32(b[:4]))
		b = b[4:]
		if len(b) < n {
			return nil, fmt.Errorf("hybrid: truncated ciphertext body")
		}
		parts[i] = b[:n]
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("hybrid: %d trailing bytes", len(b))
	}
	return &Ciphertext{WrappedKey: parts[0], Nonce: parts[1], Sealed: parts[2]}, nil
}

// Encrypt hybrid-encrypts plaintext for the public key: fresh session key,
// wrapped with RSA-OAEP(SHA-256). The optional associated data is
// authenticated but not encrypted.
// seclint:sanitizer hybrid encrypt boundary
func Encrypt(pub *rsa.PublicKey, plaintext, aad []byte) (*Ciphertext, error) {
	key := make([]byte, sessionKeyLen)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("hybrid: session key: %w", err)
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pub, key, []byte("secmediation/hybrid"))
	if err != nil {
		return nil, fmt.Errorf("hybrid: wrap session key: %w", err)
	}
	nonce, sealed, err := seal(key, plaintext, aad)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{WrappedKey: wrapped, Nonce: nonce, Sealed: sealed}, nil
}

// Decrypt reverses Encrypt with the client's private key.
// seclint:source hybrid decryption output
func Decrypt(priv *rsa.PrivateKey, c *Ciphertext, aad []byte) ([]byte, error) {
	if len(c.WrappedKey) == 0 {
		return nil, fmt.Errorf("hybrid: ciphertext has no wrapped key (session ciphertext?)")
	}
	key, err := unwrapSessionKey(priv, c.WrappedKey)
	if err != nil {
		return nil, err
	}
	return open(key, c.Nonce, c.Sealed, aad)
}

// KeyEqual compares two keys (or tags) in constant time. Every key
// comparison in the codebase must go through this or
// subtle.ConstantTimeCompare directly — bytes.Equal short-circuits and
// leaks the length of the matching prefix to a timing observer
// (enforced by seclint's subtlecmp analyzer).
func KeyEqual(a, b []byte) bool {
	return subtle.ConstantTimeCompare(a, b) == 1
}

// unwrapSessionKey recovers and validates a session key. OAEP already
// authenticates the padding, but a wrapped blob produced by a different
// (or malicious) sender could still carry a short key; AES would accept
// 16 or 24 bytes silently, downgrading the advertised AES-256 strength.
// seclint:source unwrapped session key
func unwrapSessionKey(priv *rsa.PrivateKey, wrappedKey []byte) ([]byte, error) {
	key, err := rsa.DecryptOAEP(sha256.New(), nil, priv, wrappedKey, []byte("secmediation/hybrid"))
	if err != nil {
		return nil, fmt.Errorf("hybrid: unwrap session key: %w", err)
	}
	if len(key) != sessionKeyLen {
		return nil, fmt.Errorf("hybrid: unwrapped session key has %d bytes, want %d", len(key), sessionKeyLen)
	}
	opUnwrap.Add(1)
	return key, nil
}

// Session is a sender-side hybrid session: one wrapped session key, many
// sealed messages.
type Session struct {
	key     []byte
	wrapped []byte
}

// NewSession generates a session key for the recipient's public key.
func NewSession(pub *rsa.PublicKey) (*Session, error) {
	key := make([]byte, sessionKeyLen)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("hybrid: session key: %w", err)
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pub, key, []byte("secmediation/hybrid"))
	if err != nil {
		return nil, fmt.Errorf("hybrid: wrap session key: %w", err)
	}
	opWrap.Add(1)
	return &Session{key: key, wrapped: wrapped}, nil
}

// WrappedKey returns the RSA-wrapped session key to ship alongside the
// sealed messages.
func (s *Session) WrappedKey() []byte { return s.wrapped }

// Seal encrypts one message under the session key. The returned ciphertext
// has an empty WrappedKey; the recipient opens it with a Receiver built
// from the session's wrapped key.
// seclint:sanitizer hybrid encrypt boundary
func (s *Session) Seal(plaintext, aad []byte) (*Ciphertext, error) {
	nonce, sealed, err := seal(s.key, plaintext, aad)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{Nonce: nonce, Sealed: sealed}, nil
}

// Receiver is the client side of a Session.
type Receiver struct {
	key []byte
}

// NewReceiver unwraps a session key with the client's private key.
func NewReceiver(priv *rsa.PrivateKey, wrappedKey []byte) (*Receiver, error) {
	key, err := unwrapSessionKey(priv, wrappedKey)
	if err != nil {
		return nil, err
	}
	return &Receiver{key: key}, nil
}

// Open decrypts one session message.
// seclint:source hybrid decryption output
func (r *Receiver) Open(c *Ciphertext, aad []byte) ([]byte, error) {
	return open(r.key, c.Nonce, c.Sealed, aad)
}

func seal(key, plaintext, aad []byte) (nonce, sealed []byte, err error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: aes: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: gcm: %w", err)
	}
	nonce = make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, nil, fmt.Errorf("hybrid: nonce: %w", err)
	}
	opSeal.Add(1)
	return nonce, gcm.Seal(nil, nonce, plaintext, aad), nil
}

// seclint:source AEAD plaintext
func open(key, nonce, sealed, aad []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("hybrid: aes: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("hybrid: gcm: %w", err)
	}
	if len(nonce) != gcm.NonceSize() {
		return nil, fmt.Errorf("hybrid: bad nonce length %d", len(nonce))
	}
	pt, err := gcm.Open(nil, nonce, sealed, aad)
	if err != nil {
		return nil, fmt.Errorf("hybrid: open: %w", err)
	}
	opOpen.Add(1)
	return pt, nil
}

// SessionKeyLen is the byte length of a session key.
const SessionKeyLen = sessionKeyLen

// SealWithKey seals a message under a caller-provided session key (the
// PM protocol derives one per tuple set from a curve point).
// seclint:sanitizer hybrid encrypt boundary
func SealWithKey(key, plaintext, aad []byte) (*Ciphertext, error) {
	nonce, sealed, err := seal(key, plaintext, aad)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{Nonce: nonce, Sealed: sealed}, nil
}

// OpenWithKey opens a message sealed by SealWithKey.
// seclint:source hybrid decryption output
func OpenWithKey(key []byte, c *Ciphertext, aad []byte) ([]byte, error) {
	return open(key, c.Nonce, c.Sealed, aad)
}
