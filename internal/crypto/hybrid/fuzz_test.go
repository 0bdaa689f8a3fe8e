package hybrid

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"testing"
)

// FuzzUnmarshalCiphertext: arbitrary blobs must never panic, and accepted
// ciphertexts must re-marshal byte-identically.
func FuzzUnmarshalCiphertext(f *testing.F) {
	good := (&Ciphertext{Nonce: make([]byte, nonceSize), Sealed: []byte{9}}).Marshal()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCiphertext(data)
		if err != nil {
			return
		}
		if !bytes.Equal(c.Marshal(), data) {
			t.Fatal("ciphertext re-marshal mismatch")
		}
	})
}

// FuzzSessionShare: a session share comes from a peer. Arbitrary bytes
// must give an error or a receiver, never a panic; an accepted share is a
// valid compressed point and round-trips through ParsePoint.
func FuzzSessionShare(f *testing.F) {
	qk, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	sess, err := NewSessionECDH(qk.PublicKey())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sess.Share())
	for _, b := range hostilePoints(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(append([]byte{3}, make([]byte, PointSize-1)...))
	f.Fuzz(func(t *testing.T, share []byte) {
		if _, err := NewReceiverECDH(qk, share); err != nil {
			return
		}
		pub, err := ParsePoint(share)
		if err != nil {
			t.Fatalf("receiver accepted a share ParsePoint rejects: %v", err)
		}
		if !bytes.Equal(CompressPoint(pub), share) {
			t.Fatal("accepted share does not re-compress to itself")
		}
	})
}
