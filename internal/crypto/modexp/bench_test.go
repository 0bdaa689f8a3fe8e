package modexp

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// bench2048 is the RFC 3526 group-14 prime — the cipher's default modulus.
const bench2048 = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF6955817183995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF"

// benchSetup returns the group-14 modulus, a random exponent of exactly
// expBits bits and 16 random bases.
func benchSetup(b *testing.B, expBits int) (*Modulus, *big.Int, []*big.Int) {
	b.Helper()
	p, ok := new(big.Int).SetString(bench2048, 16)
	if !ok {
		b.Fatal("bad prime")
	}
	mod, err := NewModulus(p)
	if err != nil {
		b.Fatal(err)
	}
	e, err := rand.Int(rand.Reader, new(big.Int).Lsh(bigOne, uint(expBits)))
	if err != nil {
		b.Fatal(err)
	}
	e.SetBit(e, expBits-1, 1)
	xs := make([]*big.Int, 16)
	for i := range xs {
		x, err := rand.Int(rand.Reader, p)
		if err != nil {
			b.Fatal(err)
		}
		xs[i] = x
	}
	return mod, e, xs
}

func benchExp(b *testing.B, expBits int, constantTime bool) {
	mod, e, xs := benchSetup(b, expBits)
	en, err := NewEngine(mod, e)
	if constantTime {
		en, err = NewEngineConstantTime(mod, e, expBits)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.Exp(xs[i%len(xs)])
	}
}

func BenchmarkExpShort256(b *testing.B)   { benchExp(b, 256, false) }
func BenchmarkExpFull2048(b *testing.B)   { benchExp(b, 2047, false) }
func BenchmarkExpShort256CT(b *testing.B) { benchExp(b, 256, true) }

// BenchmarkFreshEngineFirstExp times a new engine plus its first Exp —
// the per-query key pattern: every source draws a fresh key per query, so
// whatever an engine does on first use is paid once per source per query.
func BenchmarkFreshEngineFirstExp(b *testing.B) {
	mod, e, xs := benchSetup(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en, err := NewEngine(mod, e)
		if err != nil {
			b.Fatal(err)
		}
		en.Exp(xs[i%len(xs)])
	}
}
