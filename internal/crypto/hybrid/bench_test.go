package hybrid

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"testing"
)

// BenchmarkKeyTransport times the per-session key transport at each end:
// the ECDH form the protocols run (one P-256 key generation plus one ECDH
// at the sender, one ECDH at the client) beside the bench-only RSA-OAEP
// form, which the benchmark's hybrid.wrap_ns / hybrid.unwrap_ns probes
// still time.
func BenchmarkKeyTransport(b *testing.B) {
	qk, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	ecSess, err := NewSessionECDH(qk.PublicKey())
	if err != nil {
		b.Fatal(err)
	}
	rk, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		b.Fatal(err)
	}
	rsaSess, err := NewSession(&rk.PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		op   func() error
	}{
		{"ecdh/session", func() error { _, err := NewSessionECDH(qk.PublicKey()); return err }},
		{"ecdh/receiver", func() error { _, err := NewReceiverECDH(qk, ecSess.Share()); return err }},
		{"rsa/session", func() error { _, err := NewSession(&rk.PublicKey); return err }},
		{"rsa/receiver", func() error { _, err := NewReceiver(rk, rsaSess.WrappedKey()); return err }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Per-message sealing and opening: AES-GCM under the session key.
func BenchmarkSeal(b *testing.B) {
	_, sess, recv := sessionPair(b)
	for _, size := range []int{64, 1024, 16384} {
		msg := make([]byte, size)
		ct, err := sess.Seal(msg, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("seal/msg=%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := sess.Seal(msg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("open/msg=%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := recv.Open(ct, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
