package pm

import (
	"math/big"
	"testing"

	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
)

// FuzzUnpack: opening arbitrary bytes as a sealed payload never panics,
// and a blob that opens under the key opens to exactly what was sealed.
// (Under -fuzz each worker process seals its own copy of valid, with its
// own nonce, so a genuine seal need not equal this process's bytes.)
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
		if root.Cmp(big.NewInt(12345)) != 0 || string(payload) != "payload" {
			t.Fatalf("blob %x opened to other contents", data)
		}
		if len(data) != len(valid) {
			t.Fatalf("forged blob %x opened", data)
		}
	})
}
