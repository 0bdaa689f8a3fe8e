package hybrid

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"sync"
	"testing"
	"testing/quick"
)

var (
	keyOnce sync.Once
	testKey *rsa.PrivateKey
)

// rsaKey is the bench-only RSA form's recipient key.
func rsaKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	keyOnce.Do(func() {
		var err error
		testKey, err = rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			panic(err)
		}
	})
	return testKey
}

// queryKey draws a client query key.
func queryKey(t testing.TB) *ecdh.PrivateKey {
	t.Helper()
	k, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// sessionPair opens a session to a fresh query key and its receiver.
func sessionPair(t testing.TB) (*ecdh.PrivateKey, *Session, *Receiver) {
	t.Helper()
	qk := queryKey(t)
	sess, err := NewSessionECDH(qk.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewReceiverECDH(qk, sess.Share())
	if err != nil {
		t.Fatal(err)
	}
	return qk, sess, recv
}

func TestEncryptDecryptRoundtrip(t *testing.T) {
	_, sess, recv := sessionPair(t)
	if len(sess.Share()) != PointSize {
		t.Errorf("share is %d bytes, want %d", len(sess.Share()), PointSize)
	}
	msgs := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("tuple-data "), 1000)}
	for _, m := range msgs {
		c, err := sess.Seal(m, []byte("aad"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := recv.Open(c, []byte("aad"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, m) {
			t.Errorf("roundtrip mismatch for %d-byte message", len(m))
		}
	}
}

// SealEncoded's output is a marshaled ciphertext of exactly its length
// that opens to what the encoder wrote; an encoder that writes other
// than its size, or elsewhere, fails the seal.
func TestSealEncoded(t *testing.T) {
	_, sess, recv := sessionPair(t)
	for _, m := range [][]byte{{}, []byte("x"), bytes.Repeat([]byte("run "), 1000)} {
		blob, err := sess.SealEncoded(len(m), func(dst []byte) ([]byte, error) { return append(dst, m...), nil }, []byte("aad"))
		if err != nil {
			t.Fatal(err)
		}
		if cap(blob) != len(blob) || len(blob) != len(m)+28 {
			t.Errorf("%d-byte plaintext: %d-byte ciphertext of capacity %d", len(m), len(blob), cap(blob))
		}
		c, err := UnmarshalCiphertext(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := recv.Open(c, []byte("aad")); err != nil || !bytes.Equal(got, m) {
			t.Errorf("%d-byte plaintext opened to %d bytes (%v)", len(m), len(got), err)
		}
	}
	for name, encode := range map[string]func([]byte) ([]byte, error){
		"short":     func(dst []byte) ([]byte, error) { return append(dst, 1), nil },
		"long":      func(dst []byte) ([]byte, error) { return append(dst, make([]byte, 100)...), nil },
		"elsewhere": func([]byte) ([]byte, error) { return make([]byte, 2), nil },
	} {
		if _, err := sess.SealEncoded(2, encode, nil); err == nil {
			t.Errorf("%s: sealed", name)
		}
	}
}

func TestDecryptRejectsTampering(t *testing.T) {
	_, sess, recv := sessionPair(t)
	c, err := sess.Seal([]byte("secret partial result"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a ciphertext bit: AEAD must reject.
	c.Sealed[0] ^= 1
	if _, err := recv.Open(c, nil); err == nil {
		t.Error("tampered ciphertext accepted")
	}
	c.Sealed[0] ^= 1
	// Wrong AAD must reject.
	if _, err := recv.Open(c, []byte("other")); err == nil {
		t.Error("wrong AAD accepted")
	}
	// A share bit flipped on the way is another point (or none): the key
	// derived from it does not open the message.
	share := append([]byte(nil), sess.Share()...)
	share[PointSize-1] ^= 1
	qk := queryKey(t)
	if other, err := NewReceiverECDH(qk, share); err == nil {
		if _, err := other.Open(c, nil); err == nil {
			t.Error("message opened under a tampered share")
		}
	}
	// Wrong query key must reject.
	other, err := NewReceiverECDH(qk, sess.Share())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Open(c, nil); err == nil {
		t.Error("wrong query key accepted")
	}
}

func TestCiphertextMarshalRoundtrip(t *testing.T) {
	_, sess, recv := sessionPair(t)
	c, err := sess.Seal([]byte("payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := c.Marshal()
	if len(b) != nonceSize+len("payload")+16 {
		t.Errorf("blob is %d bytes, want nonce + message + GCM tag = %d", len(b), nonceSize+len("payload")+16)
	}
	got, err := UnmarshalCiphertext(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Nonce, c.Nonce) || !bytes.Equal(got.Sealed, c.Sealed) {
		t.Error("marshal roundtrip mismatch")
	}
	pt, err := recv.Open(got, nil)
	if err != nil || string(pt) != "payload" {
		t.Errorf("open after marshal: %q, %v", pt, err)
	}
}

func TestUnmarshalCiphertextErrors(t *testing.T) {
	for _, b := range [][]byte{nil, {0, 0, 0}, make([]byte, nonceSize-1)} {
		if _, err := UnmarshalCiphertext(b); err == nil {
			t.Errorf("UnmarshalCiphertext(% x) succeeded", b)
		}
	}
}

func TestSessionManyMessages(t *testing.T) {
	_, sess, recv := sessionPair(t)
	f := func(msg []byte, aad []byte) bool {
		c, err := sess.Seal(msg, aad)
		if err != nil {
			return false
		}
		got, err := recv.Open(c, aad)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// One session's AEAD is shared by the workers that seal a relation and
// by those that open it.
func TestSessionConcurrentUse(t *testing.T) {
	_, sess, recv := sessionPair(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				msg := []byte{byte(w), byte(i)}
				c, err := sess.Seal(msg, msg)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := recv.Open(c, msg)
				if err != nil || !bytes.Equal(got, msg) {
					t.Errorf("worker %d message %d: got %x, %v", w, i, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The bench-only RSA form: an unwrap under the wrong private key fails.
func TestNewReceiverWrongKey(t *testing.T) {
	key := rsaKey(t)
	other, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(&key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReceiver(other, sess.WrappedKey()); err == nil {
		t.Error("NewReceiver unwrapped with the wrong key")
	}
	recv, err := NewReceiver(key, sess.WrappedKey())
	if err != nil {
		t.Fatal(err)
	}
	c, err := sess.Seal([]byte("m"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := recv.Open(c, nil); err != nil || string(pt) != "m" {
		t.Errorf("RSA session roundtrip: %q, %v", pt, err)
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	qk := queryKey(t)
	s1, err := NewSessionECDH(qk.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSessionECDH(qk.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s1.Share(), s2.Share()) {
		t.Error("two sessions to one query key share a point")
	}
	c1, _ := s1.Seal([]byte("m"), nil)
	c2, _ := s1.Seal([]byte("m"), nil)
	if bytes.Equal(c1.Marshal(), c2.Marshal()) {
		t.Error("two encryptions of the same message are identical")
	}
}

func TestKeyEqual(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	b := []byte{1, 2, 3, 4}
	if !KeyEqual(a, b) {
		t.Error("equal keys reported unequal")
	}
	if KeyEqual(a, []byte{1, 2, 3, 5}) {
		t.Error("unequal keys reported equal")
	}
	if KeyEqual(a, a[:3]) {
		t.Error("length mismatch reported equal")
	}
	if !KeyEqual(nil, nil) {
		t.Error("two empty keys must compare equal")
	}
}

// A 16-byte key would silently downgrade AES-256 to AES-128: the RSA
// unwrap and both caller-keyed entry points refuse it.
func TestReceiverRejectsShortSessionKey(t *testing.T) {
	key := rsaKey(t)
	short := make([]byte, 16)
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, &key.PublicKey, short, oaepLabel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReceiver(key, wrapped); err == nil {
		t.Error("NewReceiver accepted a 16-byte session key")
	}
	if _, err := SealOneTimeKey(short, []byte("m"), nil); err == nil {
		t.Error("SealOneTimeKey accepted a 16-byte key")
	}
	c, err := SealOneTimeKey(make([]byte, SessionKeyLen), []byte("m"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOneTimeKey(short, c, nil); err == nil {
		t.Error("OpenOneTimeKey accepted a 16-byte key")
	}
}

// hostilePoints are share or query-key encodings a peer may send that
// are not a compressed P-256 point.
func hostilePoints(t testing.TB) map[string][]byte {
	t.Helper()
	uncompressed := queryKey(t).PublicKey().Bytes()
	xTooBig := append([]byte{2}, bytes.Repeat([]byte{0xFF}, PointSize-1)...)
	noPoint := make([]byte, PointSize)
	noPoint[0], noPoint[PointSize-1] = 2, 1 // x = 1: 1 − 3 + b is not a square mod p
	badPrefix := CompressPoint(queryKey(t).PublicKey())
	badPrefix[0] = 4
	return map[string][]byte{
		"32 bytes":         make([]byte, 32),
		"34 bytes":         make([]byte, 34),
		"uncompressed 65B": uncompressed,
		"x >= p":           xTooBig,
		"x off curve":      noPoint,
		"prefix 04":        badPrefix,
	}
}

func TestParsePointRejectsHostile(t *testing.T) {
	for name, b := range hostilePoints(t) {
		if _, err := ParsePoint(b); err == nil {
			t.Errorf("%s: ParsePoint accepted % x", name, b)
		}
		if _, err := NewReceiverECDH(queryKey(t), b); err == nil {
			t.Errorf("%s: NewReceiverECDH accepted the share", name)
		}
	}
	pub := queryKey(t).PublicKey()
	got, err := ParsePoint(CompressPoint(pub))
	if err != nil || !got.Equal(pub) {
		t.Errorf("compress/parse roundtrip: %v", err)
	}
}
