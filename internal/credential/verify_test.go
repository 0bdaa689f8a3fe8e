package credential

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// signDigest signs the SHA-256 digest of i under key.
func signDigest(t *testing.T, key *rsa.PrivateKey, i int) (digest, sig []byte) {
	t.Helper()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	sum := sha256.Sum256(b[:])
	sig, err := rsa.SignPSS(rand.Reader, key, crypto.SHA256, sum[:], nil)
	if err != nil {
		t.Fatal(err)
	}
	return sum[:], sig
}

// memoLen is the number of memoised verifications.
func memoLen() int {
	verified.mu.Lock()
	defer verified.mu.Unlock()
	return len(verified.seen)
}

// VerifyPSS verifies a signature once: a repeat makes no RSA
// verification. A failure is never stored, so a flipped signature, or a
// memoised one checked under another key, is verified, and rejected,
// every time. The memo holds at most verifyMemoCap entries and keeps the
// newest.
func TestVerifyPSSMemo(t *testing.T) {
	key, other := newClientKey(t), newClientKey(t)
	verifies := func(t *testing.T, want int64, do func()) {
		t.Helper()
		before := opVerify.Count()
		do()
		if got := opVerify.Count() - before; got != want {
			t.Errorf("%d RSA-PSS verifications, want %d", got, want)
		}
	}
	digest, sig := signDigest(t, key, -1)
	verifies(t, 1, func() {
		for i := 0; i < 3; i++ {
			if err := VerifyPSS(&key.PublicKey, digest, sig); err != nil {
				t.Fatal(err)
			}
		}
	})
	flipped := append([]byte(nil), sig...)
	flipped[len(flipped)-1] ^= 1
	verifies(t, 4, func() {
		for i := 0; i < 2; i++ {
			if VerifyPSS(&key.PublicKey, digest, flipped) == nil {
				t.Error("a flipped signature verified")
			}
			if VerifyPSS(&other.PublicKey, digest, sig) == nil {
				t.Error("a memoised signature verified under another key")
			}
		}
	})

	var newest [][]byte
	verifies(t, 2*verifyMemoCap, func() {
		for i := 0; i < 2*verifyMemoCap; i++ {
			d, s := signDigest(t, key, i)
			if err := VerifyPSS(&key.PublicKey, d, s); err != nil {
				t.Fatal(err)
			}
			if i == 2*verifyMemoCap-1 {
				newest = [][]byte{d, s}
			}
		}
	})
	if n := memoLen(); n != verifyMemoCap {
		t.Errorf("memo holds %d entries, want its cap %d", n, verifyMemoCap)
	}
	verifies(t, 1, func() {
		// The newest stays; the oldest went, and verifies afresh.
		for _, ds := range [][][]byte{newest, {digest, sig}} {
			if err := VerifyPSS(&key.PublicKey, ds[0], ds[1]); err != nil {
				t.Error(err)
			}
		}
	})
}
