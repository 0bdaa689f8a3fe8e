package pm

import (
	"bytes"
	"math/big"
	"testing"

	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
)

// FuzzUnpack: opening arbitrary bytes as a sealed payload never panics,
// and nothing but the one genuinely sealed blob opens under its key.
func FuzzUnpack(f *testing.F) {
	point := ecelgamal.BaseMul(big.NewInt(12345))
	aad := []byte("pm:fuzz")
	valid, err := SealPayload(point, big.NewInt(12345), []byte("payload"), aad)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		root, payload, ok := OpenPayload(point, data, aad)
		if !ok {
			return
		}
		if !bytes.Equal(data, valid) {
			t.Fatalf("forged blob %x opened", data)
		}
		if root.Cmp(big.NewInt(12345)) != 0 || string(payload) != "payload" {
			t.Fatal("sealed blob opened to other contents")
		}
	})
}
