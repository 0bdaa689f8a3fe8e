package pm

import (
	"bytes"
	"math/big"
	"testing"

	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
)

// FuzzUnpack: opening arbitrary bytes as a sealed payload never panics,
// and the only blob that opens under the key is the seal itself. The key
// is one-time and the nonce constant, so sealing is deterministic: every
// fuzz worker process seals the same bytes, and any other blob that
// opened would be a forgery.
func FuzzUnpack(f *testing.F) {
	point := ecelgamal.BaseMul(big.NewInt(12345))
	aad := []byte("pm:fuzz")
	valid, err := SealPayload(point, []byte("payload"), aad)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, ok := OpenPayload(point, data, aad)
		if !ok {
			return
		}
		if !bytes.Equal(data, valid) {
			t.Fatalf("forged blob %x opened", data)
		}
		if string(payload) != "payload" {
			t.Fatalf("blob %x opened to other contents", data)
		}
	})
}
