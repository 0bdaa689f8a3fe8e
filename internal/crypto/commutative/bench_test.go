package commutative

import (
	"crypto/rand"
	"fmt"
	"testing"

	"github.com/secmediation/secmediation/internal/crypto/groups"
	"github.com/secmediation/secmediation/internal/relation"
)

// Per-group-size cost of the QR(p) reference instance.
func BenchmarkEncrypt(b *testing.B) {
	for _, g := range []*groups.Group{groups.MODP1536(), groups.MODP2048(), groups.MODP3072()} {
		b.Run(fmt.Sprintf("group=%d", g.Bits()), func(b *testing.B) {
			key, err := GenerateKey(g, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			x, err := g.RandomElement(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := key.Encrypt(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKeyGeneration(b *testing.B) {
	g := groups.MODP2048()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateKey(g, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// The two per-value costs of the protocol path.
func BenchmarkApply(b *testing.B) {
	key, err := GenerateCurveKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	elem := HashToElement("bench", []byte("x"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Apply(elem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashToElement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HashToElement("bench", relation.Int(int64(i)).Encode(nil))
	}
}
