// Package hybrid implements the paper's hybrid encryption functions
// encrypt(...) and decrypt(...): data is sealed under a symmetric session
// key (AES-256-GCM), and the session key is transported to the client by
// ECDH over P-256 against the client's per-query key.
//
// A sender draws a fresh P-256 key per session; its compressed public
// point, the share, travels beside the sealed messages. Both ends derive
// the AES-256 key SHA-256(tag ‖ shared x ‖ share ‖ query key) from the
// ECDH shared secret, so the client pays one scalar multiplication per
// session and no RSA operation. One session covers many messages: the
// paper recommends encrypting a partial result and its index table under
// the same session key.
package hybrid

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
)

// sessionKeyLen is the AES-256 key length.
const sessionKeyLen = 32

// SessionKeyLen is the byte length of a session key.
const SessionKeyLen = sessionKeyLen

// PointSize is the width of a SEC 1 compressed P-256 point: a query key
// or a session share on the wire.
const PointSize = 33

// nonceSize is the GCM standard nonce length.
const nonceSize = 12

// sessionKeyTag domain-separates the session-key derivation from every
// other SHA-256 use.
const sessionKeyTag = "secmediation/hybrid-session-key\x00"

// Ciphertext is one sealed message: the GCM nonce and the AEAD output.
type Ciphertext struct {
	Nonce  []byte
	Sealed []byte
}

// Marshal serializes the ciphertext as nonce ‖ AEAD output.
func (c *Ciphertext) Marshal() []byte {
	out := make([]byte, 0, len(c.Nonce)+len(c.Sealed))
	return append(append(out, c.Nonce...), c.Sealed...)
}

// UnmarshalCiphertext parses a blob produced by Marshal.
func UnmarshalCiphertext(b []byte) (*Ciphertext, error) {
	if len(b) < nonceSize {
		return nil, fmt.Errorf("hybrid: ciphertext is %d bytes, shorter than its nonce", len(b))
	}
	return &Ciphertext{Nonce: b[:nonceSize], Sealed: b[nonceSize:]}, nil
}

// KeyEqual compares two keys (or tags) in constant time. Every key
// comparison in the codebase must go through this or
// subtle.ConstantTimeCompare directly — bytes.Equal short-circuits and
// leaks the length of the matching prefix to a timing observer
// (enforced by seclint's subtlecmp analyzer).
func KeyEqual(a, b []byte) bool {
	return subtle.ConstantTimeCompare(a, b) == 1
}

// CompressPoint renders an ECDH public key as its SEC 1 compressed point.
// seclint:sanitizer the public point of a key pair (scalar·G) is public
func CompressPoint(pub *ecdh.PublicKey) []byte {
	raw := pub.Bytes() // 0x04 ‖ x ‖ y
	out := make([]byte, PointSize)
	out[0] = 2 | raw[len(raw)-1]&1
	copy(out[1:], raw[1:PointSize])
	return out
}

// ParsePoint validates a compressed P-256 point received from a peer:
// anything but 33 bytes, a prefix other than 02/03, x ≥ p, and an x with
// no point on the curve are errors, so no scalar ever multiplies an
// invalid point. elliptic.UnmarshalCompressed is both the range and
// on-curve test and the square root.
func ParsePoint(b []byte) (*ecdh.PublicKey, error) {
	if len(b) != PointSize {
		return nil, fmt.Errorf("hybrid: point is %d bytes, want %d", len(b), PointSize)
	}
	x, y := elliptic.UnmarshalCompressed(elliptic.P256(), b)
	if x == nil {
		return nil, errors.New("hybrid: not a compressed P-256 point")
	}
	raw := make([]byte, 1+2*(PointSize-1))
	raw[0] = 4
	x.FillBytes(raw[1:PointSize])
	y.FillBytes(raw[PointSize:])
	pub, err := ecdh.P256().NewPublicKey(raw)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	return pub, nil
}

// deriveSessionKey is SHA-256(tag ‖ shared x ‖ share ‖ query key).
// seclint:source derived session key
func deriveSessionKey(shared, share, queryKey []byte) []byte {
	h := sha256.New()
	h.Write([]byte(sessionKeyTag))
	h.Write(shared)
	h.Write(share)
	h.Write(queryKey)
	return h.Sum(nil)
}

// Session is a sender-side hybrid session: one session key, many sealed
// messages. The AEAD is built once per session, not per message: AES key
// expansion and the GCM tables cost more than sealing a short tuple. The
// standard library's GCM keeps no per-call state, so the workers that
// seal one relation share it.
type Session struct {
	aead  cipher.AEAD
	share []byte
}

// NewSessionECDH starts a session to the client's query key: a fresh
// P-256 key agrees a secret with it, and the session key is derived from
// that secret and both public points.
func NewSessionECDH(queryKey *ecdh.PublicKey) (*Session, error) {
	eph, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("hybrid: session key: %w", err)
	}
	shared, err := eph.ECDH(queryKey)
	if err != nil {
		return nil, fmt.Errorf("hybrid: key agreement: %w", err)
	}
	share := CompressPoint(eph.PublicKey())
	aead, err := newGCM(deriveSessionKey(shared, share, CompressPoint(queryKey)))
	if err != nil {
		return nil, err
	}
	opWrap.Add(1)
	return &Session{aead: aead, share: share}, nil
}

// Share returns what the recipient needs to rebuild the session key: the
// session's compressed public point.
func (s *Session) Share() []byte { return s.share }

// Seal encrypts one message under the session key and a fresh random
// nonce.
// seclint:sanitizer hybrid encrypt boundary
func (s *Session) Seal(plaintext, aad []byte) (*Ciphertext, error) {
	nonce := make([]byte, nonceSize)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("hybrid: nonce: %w", err)
	}
	opSeal.Add(1)
	return &Ciphertext{Nonce: nonce, Sealed: s.aead.Seal(nil, nonce, plaintext, aad)}, nil
}

// SealEncoded seals the n-byte plaintext that encode appends to the
// empty slice it is given, and returns the ciphertext in its Marshal
// form. The buffer is allocated once, at exactly the ciphertext's
// length: encode writes the plaintext straight behind the nonce, and the
// plaintext is sealed in place, so no copy of it is left behind. It
// fails when encode appends other than n bytes.
// seclint:sanitizer hybrid encrypt boundary
func (s *Session) SealEncoded(n int, encode func(dst []byte) ([]byte, error), aad []byte) ([]byte, error) {
	buf := make([]byte, nonceSize, nonceSize+n+s.aead.Overhead())
	if _, err := rand.Read(buf); err != nil {
		return nil, fmt.Errorf("hybrid: nonce: %w", err)
	}
	pt, err := encode(buf[nonceSize:])
	if err != nil {
		return nil, err
	}
	// The plaintext must lie where the nonce's buffer continues, or the
	// seal would land outside it.
	if len(pt) != n || n > 0 && &pt[0] != &buf[:nonceSize+1][nonceSize] {
		return nil, fmt.Errorf("hybrid: encoder did not write its %d sized bytes in place (%d written)", n, len(pt))
	}
	opSeal.Add(1)
	sealed := s.aead.Seal(pt[:0], buf[:nonceSize], pt, aad)
	return buf[:nonceSize+len(sealed)], nil
}

// Receiver is the client side of a Session, with the session's AEAD
// built once.
type Receiver struct {
	aead cipher.AEAD
}

// NewReceiverECDH rebuilds a session key from the sender's share with the
// query's private key. The share comes from a peer: ParsePoint rejects it
// before the scalar touches it.
func NewReceiverECDH(queryKey *ecdh.PrivateKey, share []byte) (*Receiver, error) {
	pub, err := ParsePoint(share)
	if err != nil {
		return nil, fmt.Errorf("hybrid: session share: %w", err)
	}
	shared, err := queryKey.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("hybrid: key agreement: %w", err)
	}
	aead, err := newGCM(deriveSessionKey(shared, share, CompressPoint(queryKey.PublicKey())))
	if err != nil {
		return nil, err
	}
	opUnwrap.Add(1)
	return &Receiver{aead: aead}, nil
}

// Open decrypts one session message.
// seclint:source hybrid decryption output
func (r *Receiver) Open(c *Ciphertext, aad []byte) ([]byte, error) {
	return open(r.aead, c.Nonce, c.Sealed, aad)
}

// SealOneTimeKey seals one message under a caller-provided key that seals
// nothing else (PM derives a fresh one per evaluation from a curve point
// s·G with s drawn for it). A key that is never reused makes the nonce
// free to fix: it is the constant zero and is not sent, so the output is
// the bare AEAD output. Sealing a second message under the same key would
// reuse the nonce and break GCM.
// seclint:sanitizer hybrid encrypt boundary
func SealOneTimeKey(key, plaintext, aad []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	opSeal.Add(1)
	return gcm.Seal(nil, zeroNonce[:], plaintext, aad), nil
}

// OpenOneTimeKey opens a SealOneTimeKey output.
// seclint:source hybrid decryption output
func OpenOneTimeKey(key, sealed, aad []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	return open(gcm, zeroNonce[:], sealed, aad)
}

// zeroNonce is the nonce of every one-time-key seal.
var zeroNonce [nonceSize]byte

// newGCM refuses every key length but 32 bytes: AES would accept 16 or 24
// silently, downgrading the advertised AES-256 strength.
func newGCM(key []byte) (cipher.AEAD, error) {
	if len(key) != sessionKeyLen {
		return nil, fmt.Errorf("hybrid: session key has %d bytes, want %d", len(key), sessionKeyLen)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("hybrid: aes: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("hybrid: gcm: %w", err)
	}
	return gcm, nil
}

// seclint:source AEAD plaintext
func open(gcm cipher.AEAD, nonce, sealed, aad []byte) ([]byte, error) {
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
